package approx

import (
	"math/rand"
	"testing"

	"bddkit/internal/bdd"
)

// TestRemapConfigVariants: every ablation variant remains a safe
// underapproximation.
func TestRemapConfigVariants(t *testing.T) {
	const n = 11
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(77))
	variants := []RemapConfig{
		{},
		{DisableRemap: true},
		{DisableGrandchild: true},
		{DisableRemap: true, DisableGrandchild: true},
	}
	for iter := 0; iter < 30; iter++ {
		f := buildRandom(m, rng, n, 6)
		for _, cfg := range variants {
			g := RemapUnderApproxConfig(m, f, 0, 1.0, cfg)
			if !m.Leq(g, f) {
				t.Fatalf("variant %+v not contained", cfg)
			}
			if Density(m, g) < Density(m, f)-1e-9 {
				t.Fatalf("variant %+v lost density", cfg)
			}
			m.Deref(g)
		}
		m.Deref(f)
	}
}

// TestRemapThresholdStopsEarly: a threshold close to |f| makes RUA stop
// replacing almost immediately, so the result keeps most of the nodes.
func TestRemapThresholdStopsEarly(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 10; iter++ {
		f := buildRandom(m, rng, n, 7)
		size := m.DagSize(f)
		if size < 30 {
			m.Deref(f)
			continue
		}
		free := RemapUnderApprox(m, f, 0, 1.0)
		capped := RemapUnderApprox(m, f, size-2, 1.0)
		if m.DagSize(capped) < m.DagSize(free) {
			t.Fatalf("threshold %d produced a smaller result (%d) than unrestricted (%d)",
				size-2, m.DagSize(capped), m.DagSize(free))
		}
		m.Deref(f)
		m.Deref(free)
		m.Deref(capped)
	}
}

// TestUnderApproxAlphaExtremes: a minterm-dominated cost (alpha near 1)
// replaces less than a node-dominated cost (alpha near 0).
func TestUnderApproxAlphaExtremes(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(29))
	lessLoss, moreLoss := 0, 0
	for iter := 0; iter < 20; iter++ {
		f := buildRandom(m, rng, n, 7)
		conservative := UnderApprox(m, f, 0, 0.99)
		aggressive := UnderApprox(m, f, 0, 0.01)
		if minterms(m, conservative, n).Cmp(minterms(m, aggressive, n)) >= 0 {
			lessLoss++
		} else {
			moreLoss++
		}
		for _, r := range []bdd.Ref{f, conservative, aggressive} {
			m.Deref(r)
		}
	}
	if lessLoss < moreLoss {
		t.Fatalf("alpha did not trade minterms for nodes (kept more only %d/%d times)",
			lessLoss, lessLoss+moreLoss)
	}
}

// TestShortPathsMonotoneInThreshold: a larger budget never yields a
// smaller subset family member.
func TestShortPathsMonotoneInThreshold(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 15; iter++ {
		f := buildRandom(m, rng, n, 7)
		small := ShortPaths(m, f, 10)
		big := ShortPaths(m, f, 1000000)
		// With an unbounded threshold SP returns f itself.
		if big != f {
			t.Fatalf("unbounded SP changed f")
		}
		if !m.Leq(small, big) {
			t.Fatal("SP subsets not monotone in threshold")
		}
		for _, r := range []bdd.Ref{f, small, big} {
			m.Deref(r)
		}
	}
}

// TestApproxOnConstants: all methods are identities on constants.
func TestApproxOnConstants(t *testing.T) {
	m := bdd.New(4)
	for _, f := range []bdd.Ref{bdd.One, bdd.Zero} {
		for name, fn := range approxFns(m, 10) {
			g := fn(f)
			if g != f {
				t.Fatalf("%s changed a constant", name)
			}
			m.Deref(g)
		}
	}
}

// TestNoLeaksAcrossApproximations: after releasing all results the manager
// is back to its permanent population.
func TestNoLeaksAcrossApproximations(t *testing.T) {
	const n = 10
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(3))
	f := buildRandom(m, rng, n, 6)
	for _, fn := range approxFns(m, 8) {
		g := fn(f)
		m.Deref(g)
	}
	m.Deref(f)
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != m.PermanentNodeCount()-1 {
		t.Fatalf("leak: %d live internal nodes, want %d",
			got, m.PermanentNodeCount()-1)
	}
}
