package oracle

import (
	"testing"
	"time"

	"bddkit/internal/bdd"
)

// TestParallelStress is the concurrent acceptance run: 8 client goroutines
// build, quantify, and compose on one Workers=4 manager while GC and
// reordering fire from a lifecycle goroutine. The Makefile runs this
// package under -race, which turns the run into the memory-model check.
func TestParallelStress(t *testing.T) {
	cfg := ParStressConfig{Seed: 1}
	if testing.Short() {
		cfg.Rounds = 8
	}
	res, err := RunParallelStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCs == 0 {
		t.Fatal("no garbage collection happened during the concurrent run")
	}
	if res.Reorderings == 0 {
		t.Fatal("no reordering happened during the concurrent run")
	}
}

// TestSerialStressOnParallelManager replays the full differential
// op-sequence driver (GC, reordering, save/load interleaved, DebugCheck
// every step) against a Workers=4 manager from a single client. Every
// divergence here is a bug in the parallel entry points or the exclusive
// sections, with none of the scheduling noise of the concurrent run.
func TestSerialStressOnParallelManager(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 150
	}
	if _, err := RunStress(StressConfig{Seed: 3, Steps: steps, Workers: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersDeterminism: the parallel engine must compute the same
// functions as a Workers=1 manager across the expression corpus,
// and rebuilding a function on the same parallel manager must return the
// identical Ref (canonicity is scheduling-independent).
func TestWorkersDeterminism(t *testing.T) {
	const vars = 12
	const exprs = 40
	m1 := bdd.New(vars)
	cfg4 := bdd.DefaultConfig()
	cfg4.Workers = 4
	m4 := bdd.NewWithConfig(vars, cfg4)
	chk := NewChecker(11)

	gen := NewGen(17, vars)
	for i := 0; i < exprs; i++ {
		e := gen.Expr(6)
		f1 := e.Build(m1)
		f4 := e.Build(m4)
		if err := chk.EqualAcross(m1, f1, m4, f4); err != nil {
			t.Fatalf("expr %d: Workers=1 and Workers=4 disagree: %v", i, err)
		}
		again := e.Build(m4)
		if again != f4 {
			t.Fatalf("expr %d: rebuilding on the parallel manager gave ref %v, first build %v", i, again, f4)
		}
		m4.Deref(again)
		m1.Deref(f1)
		m4.Deref(f4)
	}
	if err := m4.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelStressWithTelemetry re-runs the concurrent hammer with the
// sampled instrumentation armed and a snapshot goroutine polling the
// merged telemetry throughout — under -race (make race / make vet) this is
// the memory-model check for the observability paths: per-worker counter
// writes, the level-heat table swap at AddVar/STW, and racy snapshot
// merges must all coexist with GC and reordering. The watchdog runs with a
// generous deadline; a healthy run must never trip it.
func TestParallelStressWithTelemetry(t *testing.T) {
	cfg := ParStressConfig{Seed: 7, SampleRate: 4, StallDeadline: 10 * time.Second}
	if testing.Short() {
		cfg.Rounds = 8
	}
	res, err := RunParallelStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshots == 0 {
		t.Fatal("snapshot hammer never ran")
	}
	if res.Telemetry.Workers != 4 {
		t.Fatalf("telemetry workers = %d, want 4", res.Telemetry.Workers)
	}
	if res.Telemetry.UniqueWait.Count == 0 {
		t.Error("no sampled unique-table waits at rate 4 under full load")
	}
	if len(res.Telemetry.STW) == 0 {
		t.Error("no STW causes recorded despite GC and reordering firing")
	}
	if res.Telemetry.SampleRate != 4 {
		t.Errorf("telemetry sample rate = %d, want 4", res.Telemetry.SampleRate)
	}
}
