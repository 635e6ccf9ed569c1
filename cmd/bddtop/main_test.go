package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// TestRenderFrames watches a live session through three frames. The
// watched manager grows between frames and is idle during them. Every
// frame shows the gauges and the quality panel; the trajectories need two frames of history, so they appear from frame
// 2 on. The live-node history gains the manager's count each frame, and
// the live-node sparkline ends with it.
func TestRenderFrames(t *testing.T) {
	sess, err := obs.Config{Addr: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	m := bdd.NewWithConfig(64, bdd.Config{Observer: sess.Observer()})
	sess.ObserveManager(m)
	obs.Of(m).Ledger().Record(obs.OpRecord{
		Kind: "approx", Op: "rua", SizeIn: 40, SizeOut: 10, MassIn: 1, MassOut: 0.75,
	})

	// grow extends a ripple-carry chain by eight bits and keeps every
	// carry alive, so each call adds live nodes.
	carries := []bdd.Ref{bdd.Zero}
	grow := func() {
		for end := len(carries) + 8; len(carries) < end; {
			i := len(carries) - 1
			a, b := m.IthVar(2*i), m.IthVar(2*i+1)
			ab, axb := m.And(a, b), m.Xor(a, b)
			ac := m.And(axb, carries[i])
			carries = append(carries, m.Or(ab, ac))
			m.Deref(ab)
			m.Deref(axb)
			m.Deref(ac)
		}
	}

	c := &console{
		base:   "http://" + sess.BoundAddr,
		client: &http.Client{Timeout: 5 * time.Second},
	}
	sparkLines := []string{"  live nodes    ", "  mass retained ", "  headroom      "}
	for frame := 1; frame <= 3; frame++ {
		grow()
		buf, err := c.renderFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		out := string(buf)
		for _, want := range []string{
			"  nodes   live ", "  engine  arena ", // gauges
			"quality ops 1 (0 aborted)", "  last op  approx.rua", "retained 0.7500", // quality panel
		} {
			if !strings.Contains(out, want) {
				t.Errorf("frame %d lacks %q:\n%s", frame, want, out)
			}
		}
		for _, prefix := range sparkLines {
			got := lineWith(out, prefix)
			if (got != "") != (frame > 1) {
				t.Errorf("frame %d: sparkline %q is %q", frame, prefix, got)
			}
		}
		live := float64(m.NodeCount())
		if len(c.live) != frame || c.live[frame-1] != live {
			t.Fatalf("frame %d: live-node history %v, want %d values ending in %v", frame, c.live, frame, live)
		}
		if frame > 1 {
			if want := fmt.Sprintf("(last %d frames)", frame); !strings.Contains(out, want) {
				t.Errorf("frame %d lacks %q:\n%s", frame, want, out)
			}
			if c.live[frame-2] >= live {
				t.Errorf("frame %d: live nodes %v -> %v, want growth", frame, c.live[frame-2], live)
			}
			line := lineWith(out, sparkLines[0])
			if !strings.HasSuffix(line, " "+humanCount(live)) {
				t.Errorf("frame %d: live-node sparkline %q does not end in %s", frame, line, humanCount(live))
			}
		}
	}

	for _, path := range []string{"/timeseries", "/parallel"} {
		resp, err := http.Get(c.base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s, want 404", path, resp.Status)
		}
	}
}

// lineWith returns the first line of out that begins with prefix, or "".
func lineWith(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
