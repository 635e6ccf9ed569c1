package bdd_test

import (
	"fmt"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/oracle"
)

// truthShape is what a truth table says about an expression's ROBDD, with
// no BDD code involved: keys holds its non-constant prefix cofactors (the
// cofactors by assignments to the first k variables of the order, as truth
// tables over all variables, each folded with its complement), and support
// the variables the function depends on.
type truthShape struct {
	keys    map[uint64]bool
	support []int
}

// shapeOf evaluates e over all 2^n assignments (n ≤ 6). With complement
// arcs, each folded non-constant prefix cofactor is one node, so
// DagSize = 1 + len(keys), the 1 being the constant node.
func shapeOf(e *oracle.Expr, n int, order []int) truthShape {
	mask := ^uint64(0) >> (64 - (1 << n))
	a := make([]bool, n)
	table := func(prefix []bool) uint64 {
		var t uint64
		for idx := 0; idx < 1<<n; idx++ {
			for v := 0; v < n; v++ {
				a[v] = idx>>v&1 == 1
			}
			for k, b := range prefix {
				a[order[k]] = b
			}
			if e.Eval(a) {
				t |= 1 << idx
			}
		}
		return t
	}
	s := truthShape{keys: map[uint64]bool{}}
	for k := 0; k <= n; k++ {
		prefix := make([]bool, k)
		for p := 0; p < 1<<k; p++ {
			for j := range prefix {
				prefix[j] = p>>j&1 == 1
			}
			t := table(prefix)
			if t == 0 || t == mask {
				continue
			}
			if c := ^t & mask; c < t {
				t = c
			}
			s.keys[t] = true
		}
	}
	full := table(nil)
	for v := 0; v < n; v++ {
		for idx := 0; idx < 1<<n; idx++ {
			if full>>idx&1 != full>>(idx^1<<v)&1 {
				s.support = append(s.support, v)
				break
			}
		}
	}
	return s
}

func unionSize(a, b truthShape) int {
	n := len(a.keys)
	for k := range b.keys {
		if !a.keys[k] {
			n++
		}
	}
	return n
}

// TestSizesMatchTruthTables checks DagSize, SharingSize and SupportVars
// against truth-table counts, in subtests workers=1 and workers=2 that
// draw their functions from different seeds. The manager starts with a
// 64-slot arena and keeps every function alive, so the arena grows between
// calls, and it collects garbage every few functions.
func TestSizesMatchTruthTables(t *testing.T) {
	const n = 6
	order := []int{0, 1, 2, 3, 4, 5}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := bdd.NewWithConfig(n, bdd.Config{InitialNodes: 64})
			gen := oracle.NewGen(int64(77+workers), n)
			var fs []bdd.Ref
			var shapes []truthShape
			for i := 0; i < 120; i++ {
				e := gen.Expr(4)
				f := e.Build(m)
				s := shapeOf(e, n, order)
				if i%2 == 1 {
					f = f.Complement() // same nodes: the keys are folded
				}
				if got, want := m.DagSize(f), 1+len(s.keys); got != want {
					t.Fatalf("function %d: DagSize %d, truth table %d", i, got, want)
				}
				if got := m.SupportVars(f); fmt.Sprint(got) != fmt.Sprint(s.support) {
					t.Fatalf("function %d: SupportVars %v, truth table %v", i, got, s.support)
				}
				if got := m.SupportSize(f); got != len(s.support) {
					t.Fatalf("function %d: SupportSize %d, truth table %d", i, got, len(s.support))
				}
				if i > 0 {
					j := i / 2
					if got, want := m.SharingSize([]bdd.Ref{f, fs[j]}), 1+unionSize(s, shapes[j]); got != want {
						t.Fatalf("functions %d,%d: SharingSize %d, truth tables %d", i, j, got, want)
					}
				}
				fs = append(fs, f)
				shapes = append(shapes, s)
				if i%10 == 9 {
					// Drop a function built earlier, then collect it.
					k := i / 3
					m.Deref(fs[k])
					fs[k], shapes[k] = m.Ref(bdd.One), truthShape{keys: map[uint64]bool{}}
					m.GarbageCollect()
				}
			}
			if st := m.Stats(); st.GCs == 0 {
				t.Fatal("no garbage collection ran")
			}
			if c := m.ArenaStats().Capacity; c <= 64 {
				t.Fatalf("arena did not grow (capacity %d)", c)
			}
			// Every size again, after the growth and the collections.
			for i, f := range fs {
				if got, want := m.DagSize(f), 1+len(shapes[i].keys); got != want {
					t.Fatalf("function %d after growth: DagSize %d, truth table %d", i, got, want)
				}
			}
			for _, f := range fs {
				m.Deref(f)
			}
		})
	}
}

// TestMarksGrowPastArena: a set sized before the arena grew still marks
// nodes allocated after it, and each new set starts empty.
func TestMarksGrowPastArena(t *testing.T) {
	m := bdd.NewWithConfig(12, bdd.Config{InitialNodes: 64})
	x := m.IthVar(0)
	mk := m.NewMarks()
	if !mk.Mark(x) || mk.Mark(x) || mk.Mark(x.Complement()) {
		t.Fatal("Mark must report the first visit only, shared by f and ¬f")
	}
	var fs []bdd.Ref
	g := m.Ref(bdd.Zero)
	for i := 0; i < 12; i++ {
		h := m.Xor(g, m.IthVar(i))
		fs = append(fs, g)
		g = h
	}
	if m.ArenaStats().Capacity <= 64 {
		t.Fatal("arena did not grow")
	}
	for i := 0; i < 2; i++ {
		if got := mk.Mark(g); got != (i == 0) {
			t.Fatalf("Mark of a node past the old arena, visit %d: %v", i, got)
		}
	}
	mk.Release()
	mk = m.NewMarks()
	if !mk.Mark(x) || !mk.Mark(g) {
		t.Fatal("a new set must start empty")
	}
	mk.Release()
	fs = append(fs, g)
	for _, f := range fs {
		m.Deref(f)
	}
}
