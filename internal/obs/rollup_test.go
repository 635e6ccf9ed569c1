package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeTrace builds a synthetic two-iteration traversal trace through the
// real tracer, sleeping long enough that durations are meaningfully ordered
// (image dominates iteration 1, subset dominates nothing — it is fast).
func fakeTrace(t *testing.T, imageSleep time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for iter := 1; iter <= 2; iter++ {
		isp := tr.Begin(iterationSpan, Str("mode", "bfs"), Int("iter", iter), Int("frontier_nodes", 10*iter))
		img := tr.Begin("reach.image")
		time.Sleep(imageSleep)
		img.End()
		tr.Event("reach.subset", Int("threshold", 100))
		isp.End(Int("fresh_nodes", 5*iter), Int("reached_nodes", 20*iter))
	}
	return buf.Bytes()
}

func TestAnalyzeTraceRollupsAndIterations(t *testing.T) {
	data := fakeTrace(t, 2*time.Millisecond)
	a, err := AnalyzeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("AnalyzeTrace: %v", err)
	}
	if a.Spans != 4 || a.Events != 2 {
		t.Fatalf("got %d spans, %d events; want 4, 2", a.Spans, a.Events)
	}
	var iterRoll, imgRoll *Rollup
	for i := range a.Rollups {
		switch a.Rollups[i].Name {
		case iterationSpan:
			iterRoll = &a.Rollups[i]
		case "reach.image":
			imgRoll = &a.Rollups[i]
		}
	}
	if iterRoll == nil || imgRoll == nil {
		t.Fatalf("missing rollups: %+v", a.Rollups)
	}
	if iterRoll.Count != 2 || imgRoll.Count != 2 {
		t.Fatalf("rollup counts: iter=%d image=%d, want 2/2", iterRoll.Count, imgRoll.Count)
	}
	// The iteration's self time must exclude the image time it contains.
	if iterRoll.Self >= iterRoll.Total {
		t.Fatalf("iteration self %d not reduced below total %d", iterRoll.Self, iterRoll.Total)
	}
	if imgRoll.Total > iterRoll.Total {
		t.Fatalf("child total %d exceeds parent total %d", imgRoll.Total, iterRoll.Total)
	}
	if iterRoll.P95 < iterRoll.P50 {
		t.Fatalf("p95 %d < p50 %d", iterRoll.P95, iterRoll.P50)
	}

	if len(a.Iterations) != 2 {
		t.Fatalf("got %d iteration summaries, want 2", len(a.Iterations))
	}
	it := a.Iterations[0]
	if it.Iter != 1 || it.Mode != "bfs" {
		t.Fatalf("iteration attrs not decoded: %+v", it)
	}
	if it.Critical != "reach.image" {
		t.Fatalf("critical phase = %q, want reach.image (phases: %+v)", it.Critical, it.Phases)
	}
	if it.Fresh != 5 || it.Reached != 20 {
		t.Fatalf("size attrs not decoded: fresh=%d reached=%d", it.Fresh, it.Reached)
	}

	var out strings.Builder
	a.WriteSummary(&out)
	for _, want := range []string{"reach.iteration", "reach.image", "critical", "p95", "reach.subset"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestAnalyzeTraceRejectsGarbage(t *testing.T) {
	_, err := AnalyzeTrace(strings.NewReader("{\"kind\":\"span\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
	a, err := AnalyzeTrace(strings.NewReader(""))
	if err != nil || a.Lines != 0 {
		t.Fatalf("empty trace: %v, %+v", err, a)
	}
}

func TestDiffRollupsSignedDeltas(t *testing.T) {
	fast, err := AnalyzeTrace(bytes.NewReader(fakeTrace(t, 1*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := AnalyzeTrace(bytes.NewReader(fakeTrace(t, 8*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	deltas := DiffRollups(fast, slow)
	byName := make(map[string]RollupDelta)
	for _, d := range deltas {
		byName[d.Name] = d
	}
	img := byName["reach.image"]
	if img.Delta <= 0 {
		t.Fatalf("slow run must show positive image delta, got %+d", img.Delta)
	}
	if img.Ratio <= 1 {
		t.Fatalf("ratio = %.2f, want > 1", img.Ratio)
	}
	// Reverse direction flips the sign.
	rev := DiffRollups(slow, fast)
	for _, d := range rev {
		if d.Name == "reach.image" && d.Delta >= 0 {
			t.Fatalf("reverse diff must be negative, got %+d", d.Delta)
		}
	}
	var out strings.Builder
	WriteDiff(&out, fast, slow, deltas)
	if !strings.Contains(out.String(), "reach.image") || !strings.Contains(out.String(), "Δwall") {
		t.Fatalf("diff output malformed:\n%s", out.String())
	}
}

// overlapFixture is a hand-built v2 trace of one operation: a 100ms parent
// span whose two children ran on different goroutines and OVERLAP in wall
// time (80ms and 70ms — 150ms of child time inside a 100ms parent), plus a
// "bdd.stw" event of the v2 vocabulary, which readers now pass unchecked.
// Parent started at 12:00:00.000; children end before it.
const overlapFixture = `{"ts":"2026-08-08T12:00:00.080Z","v":2,"kind":"span","name":"op.child","id":2,"parent":1,"dur_ns":80000000}
{"ts":"2026-08-08T12:00:00.090Z","v":2,"kind":"span","name":"op.child","id":3,"parent":1,"dur_ns":70000000}
{"ts":"2026-08-08T12:00:00.050Z","v":2,"kind":"event","name":"bdd.stw","id":4,"parent":1,"attrs":{"cause":"gc","workers":4,"wait_ns":1000000,"pause_ns":10000000}}
{"ts":"2026-08-08T12:00:00.100Z","v":2,"kind":"span","name":"op.parent","id":1,"dur_ns":100000000}
`

// TestRollupOverlappingWorkerSpans checks self-time attribution when child
// spans from concurrent goroutines overlap: the parent's self time must clamp
// to zero rather than double-count (or go negative), and the wall time must
// count the parent once, not the sum of overlapping children.
func TestRollupOverlappingWorkerSpans(t *testing.T) {
	a, err := AnalyzeTrace(strings.NewReader(overlapFixture))
	if err != nil {
		t.Fatalf("AnalyzeTrace: %v", err)
	}
	var parent, child *Rollup
	for i := range a.Rollups {
		switch a.Rollups[i].Name {
		case "op.parent":
			parent = &a.Rollups[i]
		case "op.child":
			child = &a.Rollups[i]
		}
	}
	if parent == nil || child == nil {
		t.Fatalf("missing rollups: %+v", a.Rollups)
	}
	if parent.Total != 100000000 {
		t.Errorf("parent total = %d, want 100ms", parent.Total)
	}
	if parent.Self != 0 {
		t.Errorf("parent self = %d with overlapping children, want clamp to 0", parent.Self)
	}
	if child.Total != 150000000 || child.Count != 2 {
		t.Errorf("child rollup = total %d count %d, want 150ms over 2 spans", child.Total, child.Count)
	}
	if a.WallNS != 100000000 {
		t.Errorf("WallNS = %d, want the 100ms root span only", a.WallNS)
	}
}

// TestValidateSchemaVersions checks the version gate: v2 lines pass,
// unversioned v1 lines and future versions are rejected, and the v3
// quality.op vocabulary is checked attribute-by-attribute.
func TestValidateSchemaVersions(t *testing.T) {
	sum, err := ValidateJSONL(strings.NewReader(overlapFixture))
	if err != nil {
		t.Fatalf("v2 fixture rejected: %v", err)
	}
	if sum.Version != 2 {
		t.Errorf("Version = %d, want 2", sum.Version)
	}

	legacy := `{"ts":"2026-08-08T12:00:00Z","kind":"span","name":"op","id":1,"dur_ns":5}` + "\n"
	if _, err = ValidateJSONL(strings.NewReader(legacy)); err == nil {
		t.Fatal("unversioned v1 line accepted")
	}

	future := `{"ts":"2026-08-08T12:00:00Z","v":99,"kind":"span","name":"op","id":1,"dur_ns":5}` + "\n"
	if _, err = ValidateJSONL(strings.NewReader(future)); err == nil {
		t.Fatal("future schema version accepted")
	}

	bad := []string{
		`{"ts":"2026-08-08T12:00:00Z","v":3,"kind":"event","name":"quality.op","id":1,"attrs":{"op":"rua","size_in":5,"size_out":3,"dur_ns":1,"mass_retained":0.5}}`,
		`{"ts":"2026-08-08T12:00:00Z","v":3,"kind":"event","name":"quality.op","id":1,"attrs":{"op_kind":"approx","op":"rua","size_in":-5,"size_out":3,"dur_ns":1,"mass_retained":0.5}}`,
		`{"ts":"2026-08-08T12:00:00Z","v":3,"kind":"event","name":"quality.op","id":1,"attrs":{"op_kind":"approx","op":"rua","size_in":5,"size_out":3,"dur_ns":1,"mass_retained":-0.5}}`,
	}
	for _, line := range bad {
		if _, err := ValidateJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("malformed v3 event accepted: %s", line)
		}
	}
}
