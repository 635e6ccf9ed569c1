package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// parFixture is a hand-built v2 trace of one parallel operation: a 100ms
// parent span whose two children ran on different workers and OVERLAP in
// wall time (80ms and 70ms — 150ms of child time inside a 100ms parent),
// plus the stop-the-world events a 4-worker run emits. Parent started at
// 12:00:00.000; children end before it.
const parFixture = `{"ts":"2026-08-08T12:00:00.080Z","v":2,"kind":"span","name":"op.child","id":2,"parent":1,"dur_ns":80000000}
{"ts":"2026-08-08T12:00:00.090Z","v":2,"kind":"span","name":"op.child","id":3,"parent":1,"dur_ns":70000000}
{"ts":"2026-08-08T12:00:00.050Z","v":2,"kind":"event","name":"bdd.stw","id":4,"parent":1,"attrs":{"cause":"gc","workers":4,"wait_ns":1000000,"pause_ns":10000000}}
{"ts":"2026-08-08T12:00:00.070Z","v":2,"kind":"event","name":"bdd.stw","id":5,"parent":1,"attrs":{"cause":"reorder","workers":4,"wait_ns":0,"pause_ns":5000000}}
{"ts":"2026-08-08T12:00:00.100Z","v":2,"kind":"span","name":"op.parent","id":1,"dur_ns":100000000}
`

// TestRollupOverlappingWorkerSpans checks self-time attribution when child
// spans from concurrent workers overlap: the parent's self time must clamp
// to zero rather than double-count (or go negative), and the wall time must
// count the parent once, not the sum of overlapping children.
func TestRollupOverlappingWorkerSpans(t *testing.T) {
	a, err := AnalyzeTrace(strings.NewReader(parFixture))
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
	// Envelope: earliest start is the parent (12:00:00.000), last emission
	// the parent end (12:00:00.100).
	if a.EnvelopeNS != 100000000 {
		t.Errorf("EnvelopeNS = %d, want 100ms", a.EnvelopeNS)
	}
}

// TestAmdahlFromTrace checks the serial-fraction math on the fixture: 15ms
// of STW pause inside a 100ms envelope is s = 0.15, max speedup 1/0.15, and
// the 4-worker prediction 1/(s + (1-s)/4).
func TestAmdahlFromTrace(t *testing.T) {
	a, err := AnalyzeTrace(strings.NewReader(parFixture))
	if err != nil {
		t.Fatalf("AnalyzeTrace: %v", err)
	}
	if a.Workers != 4 {
		t.Errorf("Workers = %d, want 4 from bdd.stw attrs", a.Workers)
	}
	if len(a.STW) != 2 {
		t.Fatalf("STW causes = %+v, want gc and reorder", a.STW)
	}
	if a.STW[0].Cause != "gc" || a.STW[0].PauseNS != 10000000 {
		t.Errorf("dominant cause = %+v, want gc at 10ms", a.STW[0])
	}

	r := a.Amdahl()
	if r.SerialNS != 15000000 || r.WaitNS != 1000000 {
		t.Errorf("serial %d wait %d, want 15ms / 1ms", r.SerialNS, r.WaitNS)
	}
	if math.Abs(r.SerialFraction-0.15) > 1e-9 {
		t.Errorf("SerialFraction = %v, want 0.15", r.SerialFraction)
	}
	if math.Abs(r.MaxSpeedup-1/0.15) > 1e-6 {
		t.Errorf("MaxSpeedup = %v, want %v", r.MaxSpeedup, 1/0.15)
	}
	want := 1 / (0.15 + 0.85/4)
	if math.Abs(r.PredictedAtW-want) > 1e-6 {
		t.Errorf("PredictedAtW = %v, want %v", r.PredictedAtW, want)
	}

	var buf bytes.Buffer
	r.Write(&buf)
	out := buf.String()
	for _, want := range []string{"gc", "reorder", "implied max speedup", "at 4 workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("Amdahl report missing %q:\n%s", want, out)
		}
	}
}

// TestAmdahlEmptyTrace checks a serial trace (no STW events) degrades to a
// notice, not a division by zero.
func TestAmdahlEmptyTrace(t *testing.T) {
	a, err := AnalyzeTrace(strings.NewReader(
		`{"ts":"2026-08-08T12:00:00.010Z","v":3,"kind":"span","name":"op","id":1,"dur_ns":10000000}` + "\n"))
	if err != nil {
		t.Fatalf("AnalyzeTrace: %v", err)
	}
	r := a.Amdahl()
	if r.SerialFraction != 0 || r.MaxSpeedup != 0 {
		t.Errorf("empty Amdahl = %+v, want zero serial fraction", r)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "no bdd.stw events") {
		t.Errorf("report should note the absence of STW events:\n%s", buf.String())
	}
}

// TestValidateSchemaVersions checks the version gate: v2 lines pass,
// unversioned v1 lines and future versions are rejected, and the v2 event
// vocabulary is checked attribute-by-attribute.
func TestValidateSchemaVersions(t *testing.T) {
	sum, err := ValidateJSONL(strings.NewReader(parFixture))
	if err != nil {
		t.Fatalf("v2 fixture rejected: %v", err)
	}
	if sum.Version != 2 {
		t.Errorf("Version = %d, want 2", sum.Version)
	}
	if sum.ByName["bdd.stw"] != 2 {
		t.Errorf("bdd.stw count = %d, want 2", sum.ByName["bdd.stw"])
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
		`{"ts":"2026-08-08T12:00:00Z","v":2,"kind":"event","name":"bdd.stw","id":1,"attrs":{"pause_ns":5}}`,
		`{"ts":"2026-08-08T12:00:00Z","v":2,"kind":"event","name":"bdd.stw","id":1,"attrs":{"cause":"gc"}}`,
		`{"ts":"2026-08-08T12:00:00Z","v":2,"kind":"event","name":"bdd.stall","id":1,"attrs":{"stuck_ns":5}}`,
		`{"ts":"2026-08-08T12:00:00Z","v":2,"kind":"event","name":"bdd.contention","id":1,"attrs":{"count":3}}`,
		`{"ts":"2026-08-08T12:00:00Z","v":2,"kind":"event","name":"bdd.contention","id":1,"attrs":{"subsystem":"unique","count":-1}}`,
	}
	for _, line := range bad {
		if _, err := ValidateJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("malformed v2 event accepted: %s", line)
		}
	}
}
