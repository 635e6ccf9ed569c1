package bdd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// xnorChain builds ∧_i (x_i ≡ x_{n+i}), with the i-th equivalence negated
// when bit i of r is set: 3·2^n nodes under the identity order, and a
// different function for every r < 2^n, so a loop over r keeps allocating.
func xnorChain(m *Manager, n, r int) Ref {
	f := m.Ref(One)
	for i := 0; i < n; i++ {
		e := m.Xnor(m.IthVar(i), m.IthVar(n+i))
		if r>>i&1 == 1 {
			e = e.Complement()
		}
		nf := m.And(f, e)
		m.Deref(e)
		m.Deref(f)
		f = nf
	}
	return f
}

// orOfPairs builds ∨_{i<k} (x_i ∧ x_{k+i}), which needs far more than a
// few dozen nodes under the identity order.
func orOfPairs(m *Manager, k int) Ref {
	f := m.Ref(Zero)
	for i := 0; i < k; i++ {
		p := m.And(m.IthVar(i), m.IthVar(k+i))
		nf := m.Or(f, p)
		m.Deref(p)
		m.Deref(f)
		f = nf
	}
	return f
}

func TestRunNodeCeiling(t *testing.T) {
	m := New(24)
	// Build a function that needs far more than the ceiling allows.
	err := m.Run(context.Background(), m.NodeCount()+50, func() error {
		m.Deref(orOfPairs(m, 12))
		return nil
	})
	if err == nil {
		t.Fatal("node ceiling never tripped")
	}
	var ab OpAborted
	if !errors.As(err, &ab) || ab.Err != nil {
		t.Fatalf("unexpected error %T %v", err, err)
	}
	// The manager must remain usable and structurally sound (stranded
	// references are allowed, corruption is not).
	if derr := m.DebugCheck(); derr != nil {
		t.Fatal(derr)
	}
	g := m.And(m.IthVar(0), m.IthVar(1))
	m.Deref(g)
	// Limits must be restored: the same construction now succeeds.
	if m.NodeLimit() != 0 {
		t.Fatalf("Run left node limit %d armed", m.NodeLimit())
	}
	m.Deref(orOfPairs(m, 12))
}

// TestRunDeadline: a context that is already done never calls fn, and a
// deadline that passes while fn allocates trips inside it. Both aborts
// unwrap to context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	m := New(40)
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	called := false
	err := m.Run(past, 0, func() error {
		called = true
		return nil
	})
	if called {
		t.Fatal("Run called fn under an expired context")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, new(OpAborted)) {
		t.Fatalf("expired context: err %v, want an OpAborted wrapping DeadlineExceeded", err)
	}

	soon, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	finished := false
	err = m.Run(soon, 0, func() error {
		for r := 0; r < 1<<12; r++ {
			m.Deref(xnorChain(m, 12, r))
		}
		finished = true
		return nil
	})
	if finished || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline inside fn: finished=%v err=%v", finished, err)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestRunNested: an inner Run only tightens the limits, and the outer
// ones are back in force when it returns. An inner context that ends
// leaves the outer Run alone; an outer context that ends stops the inner
// work, and stays in force after the inner Run returns.
func TestRunNested(t *testing.T) {
	m := New(24)
	limit := func(want int) {
		t.Helper()
		if got := m.NodeLimit(); got != want {
			t.Errorf("NodeLimit() = %d, want %d", got, want)
		}
	}
	err := m.Run(context.Background(), 1000, func() error {
		m.Run(context.Background(), 5000, func() error { limit(1000); return nil })
		m.Run(context.Background(), 300, func() error { limit(300); return nil })
		m.Run(context.Background(), 0, func() error { limit(1000); return nil })
		limit(1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	limit(0)

	outer, cancelOuter := context.WithCancel(context.Background())
	defer cancelOuter()
	reached := false
	err = m.Run(outer, 0, func() error {
		inner, cancelInner := context.WithCancel(context.Background())
		cancelInner()
		called := false
		if err := m.Run(inner, 0, func() error { called = true; return nil }); called || !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled inner context: called=%v err=%v", called, err)
		}
		// The inner cancellation did not end the outer Run.
		m.Deref(xnorChain(m, 10, 0))

		ierr := m.Run(context.Background(), 0, func() error {
			cancelOuter()
			for r := 0; r < 1<<10; r++ {
				m.Deref(xnorChain(m, 10, r))
			}
			return nil
		})
		if !errors.Is(ierr, context.Canceled) {
			t.Errorf("outer cancellation inside an inner Run: err %v", ierr)
		}
		for r := 0; r < 1<<10; r++ {
			m.Deref(xnorChain(m, 10, r))
		}
		reached = true
		return nil
	})
	if reached || !errors.Is(err, context.Canceled) {
		t.Fatalf("outer limits after the inner Run: reached=%v err=%v", reached, err)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCancelMidOperation: cancelling from another goroutine aborts
// the running operation at the next poll of the context flag and leaves a
// sound manager behind, in subtests workers=1 and workers=4. The bound is
// counted in work, not time, so a loaded machine cannot fail it: from the
// raised flag to the abort the engine allocates at most one poll interval
// (deadlineCheckInterval allocations), plus one interval of slack. The
// count starts at the flag, not at the cancel request: the loop yields
// until the goroutines that cancel and raise the flag have run, which on
// one P happens only when the loop lets them.
func TestRunCancelMidOperation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 14
			m := New(2 * n)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := make(chan struct{})
			go func() {
				<-started
				cancel()
			}()
			allocs := func() int64 {
				s := m.Stats()
				return s.UniqueLookups - s.UniqueHits
			}
			var mark int64 // allocations when the Run's flag is up
			err := m.Run(ctx, 0, func() error {
				for r := 0; r < 1<<n; r++ {
					if r == 1 {
						close(started)
						for !m.scope.ended.Load() {
							runtime.Gosched()
						}
						mark = allocs()
					}
					m.Deref(xnorChain(m, n, r))
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v, want an abort wrapping context.Canceled", err)
			}
			past, bound := allocs()-mark, int64(2*deadlineCheckInterval)
			t.Logf("%d allocations past the flag", past)
			if past > bound {
				t.Fatalf("%d allocations past the flag, bound %d", past, bound)
			}
			if err := m.DebugCheck(); err != nil {
				t.Fatal(err)
			}
			f := m.And(m.IthVar(0), m.IthVar(1))
			if f == Zero {
				t.Fatal("manager unusable after the cancel")
			}
			m.Deref(f)
		})
	}
}

// raiseStop raises the flag that context.AfterFunc raises when the
// context of m's innermost Run ends.
func raiseStop(m *Manager) { m.scope.ended.Store(true) }

// levelOrder returns the variable at each level.
func levelOrder(m *Manager) []int {
	order := make([]int, m.NumVars())
	for lev := range order {
		order[lev] = m.VarAtLevel(lev)
	}
	return order
}

// TestReorderSkippedInEndedRun: a Reorder inside a Run whose context has
// ended does nothing, in subtests workers=1 and workers=2. No sweep runs
// (Stats().GCs and the dead count stay) and no swap runs (the order
// stays), although the identity order of orOfPairs is far from the one
// sifting picks.
func TestReorderSkippedInEndedRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const k = 8
			m := New(2 * k)
			f := orOfPairs(m, k)
			defer m.Deref(f)
			m.Deref(xnorChain(m, k, 0))
			if err := m.Run(context.Background(), 0, func() error {
				raiseStop(m)
				gcs, dead, order := m.Stats().GCs, m.DeadCount(), levelOrder(m)
				if dead == 0 {
					t.Fatal("no dead nodes: a sweep would not show in Stats().GCs")
				}
				m.Reorder(ReorderSift, SiftConfig{})
				if got := m.Stats().GCs; got != gcs {
					t.Errorf("Stats().GCs %d -> %d: the reorder swept", gcs, got)
				}
				if got := m.DeadCount(); got != dead {
					t.Errorf("dead nodes %d -> %d", dead, got)
				}
				if got := levelOrder(m); !slices.Equal(got, order) {
					t.Errorf("order %v -> %v: the reorder swapped", order, got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := m.DebugCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReorderSweepStopsInEndedRun: a reordering sweep (gc without the
// cache sweep) that finds the Run's context ended stops after the
// subtable it is in, in subtests workers=1 and workers=2. The dead nodes
// it leaves stay counted, the manager passes DebugCheck once the cache is
// invalidated as Reorder does, and the next collection reclaims the rest.
func TestReorderSweepStopsInEndedRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const k = 8
			m := New(2 * k)
			base := m.ReferencedNodeCount()
			f := orOfPairs(m, k)
			m.Deref(xnorChain(m, k, 0))
			var dead, swept int
			if err := m.Run(context.Background(), 0, func() error {
				raiseStop(m)
				dead = m.deadCount
				swept = m.gc(false, true)
				m.cache.invalidateAll()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if swept == 0 || swept >= dead {
				t.Fatalf("the cut sweep reclaimed %d of %d dead nodes, want some but not all", swept, dead)
			}
			if got := m.DeadCount(); got != dead-swept {
				t.Fatalf("%d dead nodes after reclaiming %d of %d", got, swept, dead)
			}
			if err := m.DebugCheck(); err != nil {
				t.Fatal(err)
			}
			if got := m.GarbageCollect(); got != dead-swept {
				t.Fatalf("the next collection reclaimed %d, want the %d left", got, dead-swept)
			}
			checkReleased(t, m, f, base)
		})
	}
}

// TestSetOrderInEndedRun: SetOrder inside a Run whose context has ended
// still installs the whole order, and the manager stays sound afterwards:
// DebugCheck holds, rebuilding the held function finds the same node, and
// releasing everything leaves no live node behind. The dead nodes of a
// second function are in the table when SetOrder starts. The order keeps
// the top half and reverses the bottom half, so the swaps free dead nodes
// below dead parents they never touch: a sweep cut before them would
// leave those parents pointing at freed slots. The dead nodes hold no
// child references. It runs in subtests workers=1 and workers=2.
func TestSetOrderInEndedRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const k = 8
			m := New(2 * k)
			base := m.ReferencedNodeCount()
			f := orOfPairs(m, k)
			m.Deref(xnorChain(m, k, 0))
			order := make([]int, 2*k)
			for i := range k {
				order[i], order[k+i] = i, 2*k-1-i
			}
			if err := m.Run(context.Background(), 0, func() error {
				raiseStop(m)
				return m.SetOrder(order)
			}); err != nil {
				t.Fatal(err)
			}
			if got := levelOrder(m); !slices.Equal(got, order) {
				t.Fatalf("order %v, want %v", got, order)
			}
			if err := m.DebugCheck(); err != nil {
				t.Fatal(err)
			}
			g := orOfPairs(m, k)
			if g != f {
				t.Fatal("rebuilding the held function under the new order gave another node")
			}
			m.Deref(g)
			checkReleased(t, m, f, base)
		})
	}
}

// checkReleased releases f, collects, and checks that m is back at base
// live internal nodes and passes DebugCheck.
func checkReleased(t *testing.T, m *Manager, f Ref, base int) {
	t.Helper()
	m.Deref(f)
	m.GarbageCollect()
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	if got := m.ReferencedNodeCount(); got != base {
		t.Fatalf("leak: %d live internal nodes after release, want %d", got, base)
	}
}
