package reach

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

// deepAm2910 is the Table 1 scale sequencer closed by its microprogram
// ROM: a BFS on it runs for many seconds, so only a limit ends it early.
func deepAm2910() *circuit.Netlist {
	return model.Am2910(model.Am2910Config{Width: 8, StackDepth: 3, WithROM: true, RomSeed: 7})
}

// TestNestedRunBoundsTraversal: a traversal's own budget only tightens
// the limits of the Run around it. A 200 ms Run wrapping a BFS with a 3 s
// budget ends the BFS at the outer deadline, its limits are still in
// force after the BFS returns, and the outer Run reports the deadline.
func TestNestedRunBoundsTraversal(t *testing.T) {
	c := compile(t, deepAm2910())
	defer c.Release()
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	m := c.M
	const ceiling = 1 << 22
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	var res Result
	var bfsTime time.Duration
	reached := false
	err = m.Run(ctx, ceiling, func() error {
		res = tr.BFS(c.Init, Options{Budget: 3 * time.Second})
		bfsTime = time.Since(start)
		if got := m.NodeLimit(); got != ceiling {
			t.Errorf("node limit after the BFS = %d, want the outer %d", got, ceiling)
		}
		// The outer deadline still holds: fresh allocations abort.
		for r := 0; r < 1<<14; r++ {
			cube := m.Ref(bdd.One)
			for i := 0; i < 14; i++ {
				lit := m.IthVar(i)
				if r>>i&1 == 1 {
					lit = lit.Complement()
				}
				next := m.And(cube, lit)
				m.Deref(cube)
				cube = next
			}
			m.Deref(cube)
		}
		reached = true
		return nil
	})
	defer m.Deref(res.Reached)
	if res.Completed || bfsTime > 500*time.Millisecond {
		t.Fatalf("BFS under a 200 ms Run: completed=%v after %v", res.Completed, bfsTime)
	}
	if !strings.Contains(res.Abort, "deadline") {
		t.Errorf("BFS abort reason %q does not name the deadline", res.Abort)
	}
	if reached || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("outer Run after the BFS: reached=%v err=%v, want a deadline abort", reached, err)
	}
	if m.NodeLimit() != 0 {
		t.Fatalf("node limit %d still armed after the outer Run", m.NodeLimit())
	}
	if !m.Leq(c.Init, res.Reached) {
		t.Fatal("partial reached set lost the initial state")
	}
}

// TestCancelledTraversal: cancelling the context of the Run around a BFS
// ends it promptly with a partial reached set, and files no abort record
// on the quality ledger (a cancelled run answers nobody).
func TestCancelledTraversal(t *testing.T) {
	sink := obs.NewSink(obs.NewRegistry(), nil)
	c, err := circuit.Compile(deepAm2910(), circuit.CompileOptions{
		BDDConfig: &bdd.Config{Observer: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelledAt := make(chan time.Time, 1)
	timer := time.AfterFunc(100*time.Millisecond, func() {
		cancelledAt <- time.Now()
		cancel()
	})
	defer timer.Stop()
	var res Result
	if err := c.M.Run(ctx, 0, func() error {
		res = tr.BFS(c.Init, Options{})
		return nil
	}); err != nil {
		t.Fatalf("the traversal did not absorb its abort: %v", err)
	}
	defer c.M.Deref(res.Reached)
	if lag := time.Since(<-cancelledAt); res.Completed || lag > 250*time.Millisecond {
		t.Fatalf("cancelled BFS: completed=%v, returned %v after the cancel", res.Completed, lag)
	}
	if !strings.Contains(res.Abort, "canceled") {
		t.Errorf("abort reason %q does not name the cancellation", res.Abort)
	}
	if snap := sink.Ledger().Snapshot(); snap.Aborts != 0 {
		t.Fatalf("cancelled traversal filed %d abort records", snap.Aborts)
	}
	if err := c.M.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelTraversalStatsWindow: a traversal's stop-the-world and
// computed-table counters cover the traversal, not the compile and
// transition-relation build that ran on the manager before it, so its
// pauses fit inside its wall time. s3330 at the Table1Small scale sifts
// during compile and TR build at Workers=2.
func TestParallelTraversalStatsWindow(t *testing.T) {
	cfg := bdd.Config{Workers: 2}
	c, err := circuit.Compile(model.S3330(model.S3330Config{Word: 4, FifoDepth: 2, CrcBits: 4}),
		circuit.CompileOptions{AutoReorder: true, BDDConfig: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	before := c.M.Stats()
	res := tr.BFS(c.Init, Options{Budget: 30 * time.Second})
	defer c.M.Deref(res.Reached)
	if !res.Completed {
		t.Fatal("s3330 BFS did not complete")
	}
	if res.Stats.STWTime > res.Elapsed {
		t.Fatalf("traversal STW %v exceeds its wall time %v", res.Stats.STWTime, res.Elapsed)
	}
	after := c.M.Stats()
	if res.Stats.CacheLookups != after.CacheLookups-before.CacheLookups ||
		res.Stats.STWCount != after.STWCount-before.STWCount {
		t.Fatalf("traversal counters %d lookups / %d STW, manager moved %d / %d",
			res.Stats.CacheLookups, res.Stats.STWCount,
			after.CacheLookups-before.CacheLookups, after.STWCount-before.STWCount)
	}
}

// TestSiftStopsAtRunDeadline: sifting suspends the allocation checks, so
// it polls the Run's context itself. Under a 50 ms deadline the Run around
// a sift of the 10-bit multiplier returns within 100 ms of it, with the
// table consistent. A sift of the same instance under four deadlines runs
// first and must be cut by its deadline: one that ends inside four
// deadlines would let the bounded sift finish before its deadline, and the
// test would pass without taking the deadline path, so it fails instead.
func TestSiftStopsAtRunDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	sift := func(c *circuit.Compiled, timeout time.Duration) (context.Context, time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		start := time.Now()
		c.M.Run(ctx, 0, func() error {
			c.M.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
			return nil
		})
		return ctx, time.Since(start)
	}
	long := compile(t, model.MultiplierNetlist(10))
	ctx, took := sift(long, 4*deadline)
	long.Release()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("a sift of the 10-bit multiplier ended in %v, inside 4x the %v deadline: "+
			"the deadline path is no longer tested; use a larger instance", took, deadline)
	}

	c := compile(t, model.MultiplierNetlist(10))
	defer c.Release()
	if _, took := sift(c, deadline); took-deadline > 100*time.Millisecond {
		t.Fatalf("Run returned %v after its deadline", took-deadline)
	}
	if err := c.M.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSiftOrderUnchanged: with no deadline the flag is never raised, and
// a sift chooses the order it always chose, inside a Run or not.
func TestSiftOrderUnchanged(t *testing.T) {
	want := []int{7, 6, 5, 4, 3, 1, 2, 0, 8, 9, 15, 10, 11, 12, 13, 14}
	for _, inRun := range []bool{false, true} {
		c := compile(t, model.MultiplierNetlist(8))
		sift := func() error {
			c.M.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
			return nil
		}
		if inRun {
			c.M.Run(context.Background(), 0, sift)
		} else {
			sift()
		}
		for lev, v := range want {
			if got := c.M.VarAtLevel(lev); got != v {
				t.Fatalf("inRun=%v: level %d holds variable %d, want %d", inRun, lev, got, v)
			}
		}
		if n := c.M.NodeCount(); n != 8667 {
			t.Fatalf("inRun=%v: %d live nodes after the sift, want 8667", inRun, n)
		}
		c.Release()
	}
}

// TestSiftOrderUnchangedOnTRForests: on traversal-shaped forests (a
// Table1Small model's compiled circuit plus its transition relation), the
// auto-sift configuration and then a window pass choose the orders they
// always chose, at one worker and at four.
func TestSiftOrderUnchangedOnTRForests(t *testing.T) {
	type step struct {
		order []int
		live  int
	}
	cases := []struct {
		nl         *circuit.Netlist
		sift, win3 step
	}{
		{
			nl:   model.S3330(model.S3330Config{Word: 4, FifoDepth: 2, CrcBits: 4}),
			sift: step{[]int{33, 0, 1, 21, 2, 3, 4, 17, 50, 9, 51, 16, 8, 52, 11, 10, 19, 5, 53, 13, 12, 15, 18, 14, 54, 7, 6, 32, 20, 23, 22, 24, 25, 26, 27, 29, 28, 31, 30, 40, 41, 35, 34, 37, 36, 39, 38, 44, 43, 42, 55, 45, 46, 47, 49, 48}, 1020},
			win3: step{[]int{33, 0, 1, 21, 2, 3, 17, 50, 51, 52, 8, 9, 10, 11, 16, 18, 19, 4, 5, 53, 12, 13, 15, 14, 54, 7, 32, 20, 22, 23, 24, 25, 6, 26, 27, 29, 28, 31, 30, 40, 41, 35, 34, 37, 36, 39, 38, 44, 42, 55, 43, 45, 47, 49, 46, 48}, 832},
		},
		{
			nl:   model.S1269(model.S1269Config{Width: 4}),
			sift: step{[]int{34, 32, 40, 15, 8, 0, 1, 2, 41, 3, 42, 43, 9, 10, 12, 14, 5, 45, 7, 16, 48, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 4, 27, 28, 6, 29, 30, 31, 35, 33, 36, 37, 38, 39, 44, 11, 46, 13, 47}, 474},
			win3: step{[]int{34, 32, 40, 15, 8, 0, 1, 2, 41, 3, 42, 43, 9, 10, 12, 14, 5, 45, 7, 16, 48, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 4, 27, 28, 6, 29, 30, 31, 35, 33, 36, 37, 38, 39, 44, 11, 46, 13, 47}, 474},
		},
		{
			nl:   model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2}),
			sift: step{[]int{17, 4, 5, 39, 8, 10, 11, 12, 13, 14, 21, 16, 25, 20, 24, 29, 23, 22, 28, 31, 30, 33, 32, 35, 34, 27, 38, 36, 37, 26, 40, 41, 0, 43, 42, 44, 2, 6, 9, 18, 1, 3, 19, 15, 7}, 2637},
			win3: step{[]int{17, 5, 39, 8, 10, 11, 12, 13, 14, 4, 21, 16, 25, 20, 24, 29, 28, 23, 22, 31, 30, 33, 32, 35, 34, 27, 38, 36, 37, 40, 26, 9, 43, 41, 42, 44, 0, 2, 6, 18, 1, 3, 19, 15, 7}, 2546},
		},
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range cases {
			c := compilePar(t, tc.nl, workers)
			tr, err := NewTR(c, DefaultTROptions())
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, live int, want step) {
				t.Helper()
				for lev, v := range want.order {
					if got := c.M.VarAtLevel(lev); got != v {
						t.Fatalf("%s workers=%d after %s: level %d holds variable %d, want %d",
							tc.nl.Name, workers, name, lev, got, v)
					}
				}
				if live != want.live {
					t.Fatalf("%s workers=%d after %s: %d live nodes, want %d",
						tc.nl.Name, workers, name, live, want.live)
				}
			}
			check("sift", c.M.Reorder(bdd.ReorderSift, bdd.SiftConfig{MaxVars: 64}), tc.sift)
			check("window3", c.M.Reorder(bdd.ReorderWindow3, bdd.SiftConfig{}), tc.win3)
			if err := c.M.DebugCheck(); err != nil {
				t.Fatal(err)
			}
			tr.Release()
			c.Release()
		}
	}
}

// TestAutoReorderAtSamePointsAtEveryWorkerCount: the auto-reorder trigger
// reads the live count, which counts the same nodes at every worker
// count. So the four perfbench traversal models, compiled with dynamic
// sifting from a 2,000-node threshold and followed by their transition
// relations, sift at the same points at Workers 1, 2 and 4: the same
// number of passes, live count, peak, collections and final order.
func TestAutoReorderAtSamePointsAtEveryWorkerCount(t *testing.T) {
	nls := []*circuit.Netlist{
		model.S3330(model.S3330Config{Word: 5, FifoDepth: 3, CrcBits: 6}),
		model.S1269(model.S1269Config{Width: 5}),
		model.S5378(model.S5378Config{Units: 4, UnitWidth: 4}),
		model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2}),
	}
	type point struct {
		sifts, gcs int64
		live, peak int
		order      []int
	}
	for _, nl := range nls {
		var want point
		for _, workers := range []int{1, 2, 4} {
			cfg := bdd.DefaultConfig()
			cfg.Workers = workers
			c, err := circuit.Compile(nl, circuit.CompileOptions{
				AutoReorder: true, ReorderThreshold: 2000, BDDConfig: &cfg,
			})
			if err != nil {
				t.Fatalf("%s: %v", nl.Name, err)
			}
			tr, err := NewTR(c, DefaultTROptions())
			if err != nil {
				t.Fatalf("%s: %v", nl.Name, err)
			}
			st := c.M.Stats()
			got := point{sifts: st.Reorderings, gcs: st.GCs, live: c.M.NodeCount(), peak: st.PeakLive}
			for lev := 0; lev < c.M.NumVars(); lev++ {
				got.order = append(got.order, c.M.VarAtLevel(lev))
			}
			t.Logf("%s workers=%d: %d sifts, %d GCs, %d live, peak %d",
				nl.Name, workers, got.sifts, got.gcs, got.live, got.peak)
			tr.Release()
			c.Release()
			if workers == 1 {
				want = got
				continue
			}
			if got.sifts != want.sifts || got.gcs != want.gcs || got.live != want.live || got.peak != want.peak {
				t.Errorf("%s workers=%d: %d sifts, %d GCs, %d live, peak %d; Workers=1 had %d, %d, %d, %d",
					nl.Name, workers, got.sifts, got.gcs, got.live, got.peak,
					want.sifts, want.gcs, want.live, want.peak)
			}
			if !slices.Equal(got.order, want.order) {
				t.Errorf("%s workers=%d: order %v, Workers=1 chose %v", nl.Name, workers, got.order, want.order)
			}
		}
	}
}
