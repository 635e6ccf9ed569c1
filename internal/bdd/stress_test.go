package bdd

import (
	"math/rand"
	"testing"
)

// TestStressRandomOps is the torture test: a long random sequence of
// operations — boolean connectives, quantification, cofactors,
// minimization, reordering, garbage collection, save/load — over a pool of
// live functions, interleaved with structural checks and truth-table
// verification of a designated witness function. It shakes out interaction
// bugs no targeted test reaches (reordering × cache × GC × resurrection).
func TestStressRandomOps(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped with -short")
	}
	const (
		nVars = 9
		steps = 4000
	)
	// A tiny arena forces constant arena churn, and the computed table
	// sized from it forces cache collisions.
	m := NewWithConfig(nVars, Config{InitialNodes: 8})
	m.EnableAutoReorder(2000)
	rng := rand.New(rand.NewSource(20260705))

	type fn struct {
		ref Ref
		tt  []bool
	}
	ttOf := func(f Ref) []bool { return truthTable(m, f, nVars) }
	ttEq := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	pool := []fn{{ref: m.Ref(One)}, {ref: m.Ref(Zero)}}
	pool[0].tt = ttOf(One)
	pool[1].tt = ttOf(Zero)
	for i := 0; i < nVars; i++ {
		v := m.Ref(m.IthVar(i))
		pool = append(pool, fn{ref: v, tt: ttOf(v)})
	}
	pick := func() fn { return pool[rng.Intn(len(pool))] }
	push := func(r Ref, tt []bool) {
		pool = append(pool, fn{ref: r, tt: tt})
		// Keep the pool bounded: evict a random non-constant entry.
		if len(pool) > 40 {
			k := 2 + rng.Intn(len(pool)-2)
			m.Deref(pool[k].ref)
			pool[k] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
	}
	combine := func(a, b []bool, op func(bool, bool) bool) []bool {
		out := make([]bool, len(a))
		for i := range a {
			out[i] = op(a[i], b[i])
		}
		return out
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0:
			a, b := pick(), pick()
			r := m.And(a.ref, b.ref)
			push(r, combine(a.tt, b.tt, func(x, y bool) bool { return x && y }))
		case 1:
			a, b := pick(), pick()
			r := m.Or(a.ref, b.ref)
			push(r, combine(a.tt, b.tt, func(x, y bool) bool { return x || y }))
		case 2:
			a, b := pick(), pick()
			r := m.Xor(a.ref, b.ref)
			push(r, combine(a.tt, b.tt, func(x, y bool) bool { return x != y }))
		case 3:
			a := pick()
			r := m.Not(a.ref)
			push(r, combine(a.tt, a.tt, func(x, _ bool) bool { return !x }))
		case 4:
			a, b, c := pick(), pick(), pick()
			r := m.ITE(a.ref, b.ref, c.ref)
			tt := make([]bool, len(a.tt))
			for i := range tt {
				if a.tt[i] {
					tt[i] = b.tt[i]
				} else {
					tt[i] = c.tt[i]
				}
			}
			push(r, tt)
		case 5:
			a := pick()
			v := rng.Intn(nVars)
			r := m.Exists(a.ref, []int{v})
			tt := make([]bool, len(a.tt))
			for i := range tt {
				tt[i] = a.tt[i|1<<uint(v)] || a.tt[i&^(1<<uint(v))]
			}
			push(r, tt)
		case 6:
			a := pick()
			v := rng.Intn(nVars)
			val := rng.Intn(2) == 1
			r := m.CofactorVar(a.ref, v, val)
			tt := make([]bool, len(a.tt))
			for i := range tt {
				j := i &^ (1 << uint(v))
				if val {
					j |= 1 << uint(v)
				}
				tt[i] = a.tt[j]
			}
			push(r, tt)
		case 7:
			// Restrict against a non-empty care set: only check care
			// agreement, then drop the result.
			a, c := pick(), pick()
			if c.ref == Zero {
				continue
			}
			r := m.Restrict(a.ref, c.ref)
			rt := ttOf(r)
			for i := range rt {
				if c.tt[i] && rt[i] != a.tt[i] {
					t.Fatalf("step %d: restrict disagrees on care set", step)
				}
			}
			m.Deref(r)
		case 8:
			m.GarbageCollect()
		case 9:
			if rng.Intn(4) == 0 { // reordering is expensive; do it rarely
				method := []ReorderMethod{ReorderSift, ReorderWindow3}[rng.Intn(2)]
				m.Reorder(method, SiftConfig{})
			}
		case 10:
			// Minimize between two comparable functions.
			a, b := pick(), pick()
			l := m.And(a.ref, b.ref)
			u := m.Or(a.ref, b.ref)
			r := m.Minimize(l, u)
			if !m.Leq(l, r) || !m.Leq(r, u) {
				t.Fatalf("step %d: Minimize left the interval", step)
			}
			m.Deref(l)
			m.Deref(u)
			m.Deref(r)
		case 11:
			// Spot-check one pool entry against its recorded table.
			a := pick()
			if !ttEq(ttOf(a.ref), a.tt) {
				t.Fatalf("step %d: pool function corrupted", step)
			}
		}
		if step%500 == 499 {
			if err := m.DebugCheck(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			// Full pool verification at checkpoints.
			for k, e := range pool {
				if !ttEq(ttOf(e.ref), e.tt) {
					t.Fatalf("step %d: pool[%d] corrupted", step, k)
				}
			}
		}
	}
	for _, e := range pool {
		m.Deref(e.ref)
	}
	m.GarbageCollect()
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	if got := m.ReferencedNodeCount(); got != m.PermanentNodeCount()-1 {
		t.Fatalf("stress leak: %d live internal nodes, want %d",
			got, m.PermanentNodeCount()-1)
	}
}
