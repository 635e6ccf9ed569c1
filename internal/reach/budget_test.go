package reach

import (
	"context"
	"testing"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
)

// TestBudgetAbort: a traversal with a microscopic budget must return
// quickly, flagged as incomplete, with a usable partial reached set.
func TestBudgetAbort(t *testing.T) {
	nl := model.S5378(model.S5378Config{Units: 4, UnitWidth: 4})
	c := compile(t, nl)
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := tr.BFS(c.Init, Options{Budget: time.Microsecond})
	if res.Completed {
		t.Fatal("microsecond budget reported completion")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("budget abort took far too long")
	}
	// The partial result must at least contain the initial state.
	if !c.M.Leq(c.Init, res.Reached) {
		t.Fatal("partial reached set lost the initial state")
	}
	c.M.Deref(res.Reached)

	hd := tr.HighDensity(c.Init, Options{Budget: time.Microsecond})
	if hd.Completed {
		t.Fatal("HD microsecond budget reported completion")
	}
	c.M.Deref(hd.Reached)
	tr.Release()
	c.Release()
}

// TestNoLatchesError: building a TR over a purely combinational circuit is
// an error, not a panic.
func TestNoLatchesError(t *testing.T) {
	nl := model.MultiplierNetlist(4)
	c, err := circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if _, err := NewTR(c, DefaultTROptions()); err == nil {
		t.Fatal("expected an error for a combinational circuit")
	}
}

// TestHDWithoutPImg: high-density traversal with exact images still
// converges to BFS's answer.
func TestHDWithoutPImg(t *testing.T) {
	nl := model.S1269(model.S1269Small())
	c := compile(t, nl)
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	bfs := tr.BFS(c.Init, Options{})
	hd := tr.HighDensity(c.Init, Options{Subset: RUASubsetter(1.0)})
	if bfs.Reached != hd.Reached {
		t.Fatalf("HD (no PImg) diverged: %v vs %v states", hd.States, bfs.States)
	}
	c.M.Deref(bfs.Reached)
	c.M.Deref(hd.Reached)
	tr.Release()
	c.Release()
}

// TestImageMonotone: the image of a subset is a subset of the image.
func TestImageMonotone(t *testing.T) {
	nl := model.Am2910(model.Am2910Small())
	c := compile(t, nl)
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	var st ImageStats
	imgInit := tr.Image(c.Init, nil, &st)
	full := tr.Image(imgInit, nil, &st)
	// init ⊆ init ∪ img, so Image(init) ⊆ Image(init ∪ img).
	union := c.M.Or(c.Init, imgInit)
	imgUnion := tr.Image(union, nil, &st)
	if !c.M.Leq(imgInit, imgUnion) {
		t.Fatal("image not monotone")
	}
	c.M.Deref(imgInit)
	c.M.Deref(full)
	c.M.Deref(union)
	c.M.Deref(imgUnion)
	tr.Release()
	c.Release()
}

// TestNodeLimitAbort: a traversal inside a Run with a tiny live-node
// ceiling must return a partial — but sound — reached set, flag the abort
// reason, and leave the manager's limit disarmed for whoever runs next
// (the degrade path allocates).
func TestNodeLimitAbort(t *testing.T) {
	nl := model.S5378(model.S5378Config{Units: 4, UnitWidth: 4})
	c := compile(t, nl)
	defer c.Release()
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	limit := c.M.NodeCount() + 32
	underCeiling := func(traverse func(bdd.Ref, Options) Result) Result {
		var res Result
		if err := c.M.Run(context.Background(), limit, func() error {
			res = traverse(c.Init, Options{})
			return nil
		}); err != nil {
			t.Fatalf("the traversal did not absorb its abort: %v", err)
		}
		return res
	}
	res := underCeiling(tr.BFS)
	if res.Completed {
		t.Fatalf("traversal under a %d-node ceiling reported completion", limit)
	}
	if res.Abort == "" {
		t.Fatal("aborted traversal carries no abort reason")
	}
	if !c.M.Leq(c.Init, res.Reached) {
		t.Fatal("partial reached set lost the initial state")
	}
	if c.M.NodeLimit() != 0 {
		t.Fatalf("traversal left node limit %d armed", c.M.NodeLimit())
	}
	c.M.Deref(res.Reached)

	hd := underCeiling(tr.HighDensity)
	if hd.Completed {
		t.Fatal("HD under the ceiling reported completion")
	}
	if hd.Abort == "" {
		t.Fatal("HD abort reason missing")
	}
	c.M.Deref(hd.Reached)
}
