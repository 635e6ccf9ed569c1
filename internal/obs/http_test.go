package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestShutdownDrainsInflightScrape is the regression test for the endpoint
// teardown path: a slow request (a pprof trace runs for its full requested
// duration server-side) started before Close must complete intact. The old
// srv.Close() aborted the connection mid-body.
func TestShutdownDrainsInflightScrape(t *testing.T) {
	s, err := Config{Addr: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.BoundAddr + "/debug/pprof/trace?seconds=1"

	type scrape struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan scrape, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			done <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- scrape{status: resp.StatusCode, body: body, err: err}
	}()

	// Let the scrape reach the server, then tear the session down while
	// the trace is still streaming.
	time.Sleep(200 * time.Millisecond)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()

	select {
	case sc := <-done:
		if sc.err != nil {
			t.Fatalf("in-flight scrape aborted by shutdown: %v", sc.err)
		}
		if sc.status != http.StatusOK {
			t.Fatalf("in-flight scrape got status %d: %s", sc.status, sc.body)
		}
		if len(sc.body) == 0 {
			t.Fatal("in-flight scrape returned an empty trace body")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scrape never completed")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}

	// The listener must actually be down afterwards.
	if _, err := http.Get("http://" + s.BoundAddr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after Close")
	}
}

// TestShutdownFallsBackToClose arms a tiny drain deadline and holds a
// request open past it: Close must fall back to the hard close instead of
// waiting out the full request.
func TestShutdownFallsBackToClose(t *testing.T) {
	s, err := Config{Addr: "127.0.0.1:0", ShutdownDrain: 100 * time.Millisecond}.Start()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + s.BoundAddr + "/debug/pprof/trace?seconds=30")
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v; the drain fallback should have fired at ~100ms", d)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("30s trace request completed under a 100ms drain; expected an aborted connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aborted request never returned")
	}
}

// TestConfigValidate covers the nonsense-flag rejections.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"zero value", Config{}, ""},
		{"all armed", Config{Trace: "-", Metrics: true, Linger: time.Second}, ""},
		{"negative linger", Config{Linger: -time.Second}, "obs-linger"},
		{"negative drain", Config{ShutdownDrain: -time.Second}, "shutdown drain"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// Start must enforce Validate, not just offer it.
	if _, err := (Config{Trace: "-", Linger: -1}).Start(); err == nil {
		t.Error("Start accepted a config Validate rejects")
	}
}
