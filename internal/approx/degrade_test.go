package approx

import (
	"context"
	"math/rand"
	"testing"

	"bddkit/internal/bdd"
)

// TestToBudgetContainmentAndSize: ToBudget must meet the node budget and
// stay containment-sound across a spread of random functions and budgets.
func TestToBudgetContainmentAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := bdd.New(14)
	for trial := 0; trial < 20; trial++ {
		f := buildRandom(m, rng, 14, 6)
		size := m.DagSize(f)
		for _, budget := range []int{size * 2, size, size / 2, size / 8, 3, 1} {
			if budget <= 0 {
				continue
			}
			r := ToBudget(m, f, budget)
			if got := m.DagSize(r); got > budget {
				t.Fatalf("trial %d: ToBudget(%d nodes, budget %d) returned %d nodes", trial, size, budget, got)
			}
			if !m.Leq(r, f) {
				t.Fatalf("trial %d budget %d: result is not contained in f", trial, budget)
			}
			m.Deref(r)
		}
		m.Deref(f)
	}
}

// TestToBudgetIdentityUnderBudget: a function already inside the budget
// comes back untouched (same canonical ref).
func TestToBudgetIdentityUnderBudget(t *testing.T) {
	m := bdd.New(8)
	rng := rand.New(rand.NewSource(9))
	f := buildRandom(m, rng, 8, 5)
	defer m.Deref(f)
	r := ToBudget(m, f, m.DagSize(f))
	defer m.Deref(r)
	if r != f {
		t.Fatalf("under-budget input was rewritten: %v -> %v", f, r)
	}
	// No budget at all behaves the same.
	r0 := ToBudget(m, f, 0)
	defer m.Deref(r0)
	if r0 != f {
		t.Fatal("maxNodes=0 must mean no budget")
	}
}

// TestToBudgetAfterAbort is the server scenario end to end: an operation
// trips the node ceiling of a Run, then the caller degrades the oversized
// operand to the quota after the Run, with the limit disarmed.
func TestToBudgetAfterAbort(t *testing.T) {
	m := bdd.New(20)
	rng := rand.New(rand.NewSource(41))
	f := buildRandom(m, rng, 20, 8)
	defer m.Deref(f)
	quota := m.NodeCount() + 4
	var g bdd.Ref
	err := m.Run(context.Background(), quota, func() error {
		a := buildRandom(m, rng, 20, 8)
		g = m.And(f, a)
		m.Deref(a)
		return nil
	})
	if err == nil {
		// The workload fit after all; force the degrade path anyway.
		m.Deref(g)
	}
	if m.NodeLimit() != 0 {
		t.Fatal("Run did not restore the disarmed node limit")
	}
	d := ToBudget(m, f, 8)
	defer m.Deref(d)
	if m.DagSize(d) > 8 {
		t.Fatalf("degrade returned %d nodes for a budget of 8", m.DagSize(d))
	}
	if !m.Leq(d, f) {
		t.Fatal("degraded answer is not containment-sound")
	}
}
