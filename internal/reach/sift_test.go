package reach

import (
	"testing"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
)

// perfbenchModels are the four traversal models of perfbench at the sizes
// its traversal workload runs.
func perfbenchModels() []*circuit.Netlist {
	return []*circuit.Netlist{
		model.S3330(model.S3330Config{Word: 5, FifoDepth: 3, CrcBits: 6}),
		model.S1269(model.S1269Config{Width: 5}),
		model.S5378(model.S5378Config{Units: 4, UnitWidth: 4}),
		model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2}),
	}
}

// siftLog is a bdd.Observer that records the live counts before and after
// each reordering pass. onGC, when set, runs inside the next collection
// and is then cleared. The manager calls it on its own goroutine.
type siftLog struct {
	passes [][2]int
	onGC   func()
}

func (l *siftLog) GC(int, int, time.Duration) {
	if f := l.onGC; f != nil {
		l.onGC = nil
		f()
	}
}
func (l *siftLog) Reorder(before, after int, _ time.Duration) {
	l.passes = append(l.passes, [2]int{before, after})
}
func (l *siftLog) Abort(string)       {}
func (l *siftLog) DebugFailure(error) {}

// compileLogged compiles nl onto a manager reporting to log, with
// auto-reorder armed as perfbench arms it, or off.
func compileLogged(t *testing.T, nl *circuit.Netlist, log *siftLog, autoReorder bool) (*circuit.Compiled, *TR) {
	t.Helper()
	c, err := circuit.Compile(nl, circuit.CompileOptions{
		AutoReorder: autoReorder,
		BDDConfig:   &bdd.Config{Observer: log},
	})
	if err != nil {
		t.Fatalf("%s: %v", nl.Name, err)
	}
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatalf("%s: %v", nl.Name, err)
	}
	return c, tr
}

// TestFirstImageSiftsOnce: on each perfbench traversal model with
// auto-reorder armed, NewTR does not sift, and a BFS sifts once before its
// first conjunction. That sift starts from the live count NewTR left, so
// no product was built before it, and shrinks the table; no second sift
// starts where it ended, so none ran between it and the first
// conjunction. A second BFS on the same relation starts without a sift.
// Each BFS runs one image.
func TestFirstImageSiftsOnce(t *testing.T) {
	for _, nl := range perfbenchModels() {
		log := &siftLog{}
		c, tr := compileLogged(t, nl, log, true)
		if tr.sifted {
			t.Fatalf("%s: NewTR marked the relation sifted", nl.Name)
		}
		live, n := c.M.NodeCount(), len(log.passes)
		res := tr.BFS(c.Init, Options{MaxIterations: 1})
		c.M.Deref(res.Reached)
		passes := log.passes[n:]
		if len(passes) == 0 || passes[0][0] != live {
			t.Fatalf("%s: passes %v; want the first to start from the %d live nodes NewTR left",
				nl.Name, passes, live)
		}
		if first := passes[0]; first[1] >= first[0] {
			t.Fatalf("%s: the first-image sift went from %d to %d live nodes", nl.Name, first[0], first[1])
		}
		if len(passes) > 1 && passes[1][0] == passes[0][1] {
			t.Fatalf("%s: a second sift ran right after the first: passes %v", nl.Name, passes)
		}
		if !tr.sifted || res.Stats.Reorderings != int64(len(passes)) {
			t.Fatalf("%s: sifted=%v, Stats.Reorderings %d, %d passes",
				nl.Name, tr.sifted, res.Stats.Reorderings, len(passes))
		}
		if res.Stats.ReorderTime <= 0 {
			t.Fatalf("%s: Stats.ReorderTime %v after a sift", nl.Name, res.Stats.ReorderTime)
		}
		t.Logf("%s: first-image sift %d -> %d live nodes, %d passes in the first image",
			nl.Name, passes[0][0], passes[0][1], len(passes))

		live, n = c.M.NodeCount(), len(log.passes)
		res = tr.BFS(c.Init, Options{MaxIterations: 1})
		c.M.Deref(res.Reached)
		for _, p := range log.passes[n:] {
			if p[0] == live {
				t.Fatalf("%s: the second BFS sifted at its start: passes %v", nl.Name, log.passes[n:])
			}
		}
		tr.Release()
		c.Release()
	}
}

// TestNoFirstImageSiftWithoutAutoReorder: with auto-reorder off, as on
// every bddserve tenant, no traversal sifts and the relation stays
// unsifted.
func TestNoFirstImageSiftWithoutAutoReorder(t *testing.T) {
	for _, nl := range perfbenchModels() {
		log := &siftLog{}
		c, tr := compileLogged(t, nl, log, false)
		res := tr.BFS(c.Init, Options{MaxIterations: 2})
		c.M.Deref(res.Reached)
		if len(log.passes) != 0 || res.Stats.Reorderings != 0 || tr.sifted {
			t.Fatalf("%s: passes %v, Stats.Reorderings %d, sifted=%v; want no sift",
				nl.Name, log.passes, res.Stats.Reorderings, tr.sifted)
		}
		tr.Release()
		c.Release()
	}
}

// TestFirstImageSiftStopsAtBudget: the first-image sift runs inside the
// traversal's Run, so the traversal's budget bounds it. The sift's first
// step is a sweep of the dead nodes NewTR left; the observer holds that
// sweep until 250 ms past a 50 ms budget, so the budget ends during the
// sift, before its first swap. The BFS then returns Completed false, the
// manager passes DebugCheck, and the order differs from the one NewTR left
// by at most one adjacent swap: at most the swap in flight when the flag
// rose runs past the deadline.
func TestFirstImageSiftStopsAtBudget(t *testing.T) {
	const budget = 50 * time.Millisecond
	log := &siftLog{}
	c, tr := compileLogged(t, model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2}), log, true)
	defer c.Release()
	defer tr.Release()
	if c.M.DeadCount() == 0 {
		t.Fatal("NewTR left no dead nodes: the sift's first sweep would not reach the observer")
	}
	before := levelOrder(c.M)
	log.onGC = func() { time.Sleep(budget + 250*time.Millisecond) }
	res := tr.BFS(c.Init, Options{Budget: budget})
	defer c.M.Deref(res.Reached)
	if log.onGC != nil {
		t.Fatal("no collection ran during the BFS")
	}
	if res.Completed {
		t.Fatal("BFS completed; want the budget to end it")
	}
	if len(log.passes) != 1 {
		t.Fatalf("%d reordering passes, want the one the budget cut", len(log.passes))
	}
	if err := c.M.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	if after := levelOrder(c.M); !withinOneSwap(before, after) {
		t.Fatalf("order %v -> %v: more than one swap ran past the deadline", before, after)
	}
}

// levelOrder returns the variable at each level.
func levelOrder(m *bdd.Manager) []int {
	order := make([]int, m.NumVars())
	for lev := range order {
		order[lev] = m.VarAtLevel(lev)
	}
	return order
}

// withinOneSwap reports whether b equals a or is a with two adjacent
// entries exchanged.
func withinOneSwap(a, b []int) bool {
	var diff []int
	for i := range a {
		if a[i] != b[i] {
			diff = append(diff, i)
		}
	}
	switch len(diff) {
	case 0:
		return true
	case 2:
		i := diff[0]
		return diff[1] == i+1 && a[i] == b[i+1] && a[i+1] == b[i]
	}
	return false
}
