package approx

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

// minterms returns the exact ‖g‖ over n variables.
func minterms(m *bdd.Manager, g bdd.Ref, n int) *big.Int {
	c, err := count.Minterms(m, g, n)
	if err != nil {
		panic(err)
	}
	return c
}

// buildRandom returns a random function over n variables from a seeded
// expression tree, owned by the caller.
func buildRandom(m *bdd.Manager, rng *rand.Rand, n, depth int) bdd.Ref {
	if depth == 0 {
		v := m.Ref(m.IthVar(rng.Intn(n)))
		if rng.Intn(2) == 0 {
			return v.Complement()
		}
		return v
	}
	a := buildRandom(m, rng, n, depth-1)
	b := buildRandom(m, rng, n, depth-1)
	var r bdd.Ref
	switch rng.Intn(3) {
	case 0:
		r = m.And(a, b)
	case 1:
		r = m.Or(a, b)
	default:
		r = m.Xor(a, b)
	}
	m.Deref(a)
	m.Deref(b)
	return r
}

// approxFns enumerates every simple underapproximation under test.
func approxFns(m *bdd.Manager, threshold int) map[string]func(bdd.Ref) bdd.Ref {
	return map[string]func(bdd.Ref) bdd.Ref{
		"HB":  func(f bdd.Ref) bdd.Ref { return HeavyBranch(m, f, threshold) },
		"SP":  func(f bdd.Ref) bdd.Ref { return ShortPaths(m, f, threshold) },
		"UA":  func(f bdd.Ref) bdd.Ref { return UnderApprox(m, f, threshold, 0.5) },
		"RUA": func(f bdd.Ref) bdd.Ref { return RemapUnderApprox(m, f, threshold, 1.0) },
		"C1":  func(f bdd.Ref) bdd.Ref { return Compound1(m, f, threshold, 1.0) },
		"C2":  func(f bdd.Ref) bdd.Ref { return Compound2(m, f, threshold, 1.0) },
	}
}

// TestUnderApproxContainment: every method returns a subset of f.
func TestUnderApproxContainment(t *testing.T) {
	const n = 10
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 60; iter++ {
		f := buildRandom(m, rng, n, 6)
		for _, th := range []int{0, 5, 20} {
			for name, fn := range approxFns(m, th) {
				g := fn(f)
				if !m.Leq(g, f) {
					t.Fatalf("%s(threshold=%d) is not an underapproximation", name, th)
				}
				m.Deref(g)
			}
		}
		m.Deref(f)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestRemapSafety: Definition 1 of the paper — with quality ≥ 1 RUA never
// decreases density.
func TestRemapSafety(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(5150))
	for iter := 0; iter < 60; iter++ {
		f := buildRandom(m, rng, n, 7)
		if f.IsConstant() {
			m.Deref(f)
			continue
		}
		g := RemapUnderApprox(m, f, 0, 1.0)
		df, dg := Density(m, f), Density(m, g)
		if dg < df-1e-9 {
			t.Fatalf("RUA not safe: δ(f)=%v δ(g)=%v (|f|=%d |g|=%d)",
				df, dg, m.DagSize(f), m.DagSize(g))
		}
		m.Deref(f)
		m.Deref(g)
	}
}

// TestCompoundDominance: C1 never loses to RUA (≤ nodes, ≥ minterms), the
// property quoted in Section 4 of the paper.
func TestCompoundDominance(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 40; iter++ {
		f := buildRandom(m, rng, n, 7)
		rua := RemapUnderApprox(m, f, 0, 1.0)
		c1 := Compound1(m, f, 0, 1.0)
		if m.DagSize(c1) > m.DagSize(rua) {
			t.Fatal("C1 larger than RUA")
		}
		if minterms(m, c1, n).Cmp(minterms(m, rua, n)) < 0 {
			t.Fatal("C1 retains fewer minterms than RUA")
		}
		for _, r := range []bdd.Ref{f, rua, c1} {
			m.Deref(r)
		}
	}
}

// TestOverApprox: the dual wrappers return supersets.
func TestOverApprox(t *testing.T) {
	const n = 10
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(808))
	for iter := 0; iter < 30; iter++ {
		f := buildRandom(m, rng, n, 6)
		for name, fn := range map[string]func(bdd.Ref) bdd.Ref{
			"RemapOver": func(f bdd.Ref) bdd.Ref { return RemapOverApprox(m, f, 0, 1.0) },
			"UAOver":    func(f bdd.Ref) bdd.Ref { return OverApprox(m, f, 0, 0.5) },
		} {
			g := fn(f)
			if !m.Leq(f, g) {
				t.Fatalf("%s is not an overapproximation", name)
			}
			m.Deref(g)
		}
		m.Deref(f)
	}
}

// TestHeavyBranchThreshold: HB respects its size budget within the slack of
// its chain construction (chain length ≤ number of variables).
func TestHeavyBranchThreshold(t *testing.T) {
	const n = 14
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 20; iter++ {
		f := buildRandom(m, rng, n, 8)
		for _, th := range []int{4, 16, 64} {
			g := HeavyBranch(m, f, th)
			if got := m.DagSize(g); got > th+n {
				t.Fatalf("HB size %d far exceeds threshold %d", got, th)
			}
			m.Deref(g)
		}
		m.Deref(f)
	}
}

// TestShortPathsKeepsShortestImplicant: the SP subset always contains at
// least one shortest-path implicant of f (it is never Zero for f ≠ Zero).
func TestShortPathsKeepsShortestImplicant(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 30; iter++ {
		f := buildRandom(m, rng, n, 7)
		if f == bdd.Zero {
			m.Deref(f)
			continue
		}
		g := ShortPaths(m, f, 3)
		if g == bdd.Zero {
			t.Fatal("SP produced the empty subset for a satisfiable function")
		}
		m.Deref(f)
		m.Deref(g)
	}
}

// TestApproxIdentityOnSmall: a threshold at least as large as |f| returns f
// itself for the subsetting methods that honor thresholds directly.
func TestApproxIdentityOnSmall(t *testing.T) {
	const n = 8
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		f := buildRandom(m, rng, n, 5)
		size := m.DagSize(f)
		g := ShortPaths(m, f, size)
		if g != f {
			t.Fatal("SP changed a function that already fits")
		}
		m.Deref(g)
		h := HeavyBranch(m, f, size)
		if h != f {
			t.Fatal("HB changed a function that already fits")
		}
		m.Deref(h)
		m.Deref(f)
	}
}

// TestRemapQualityMonotonicity: larger quality factors are pickier, so the
// result cannot lose density.
func TestRemapQuality(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(314))
	for iter := 0; iter < 20; iter++ {
		f := buildRandom(m, rng, n, 7)
		loose := RemapUnderApprox(m, f, 0, 0.5)
		strict := RemapUnderApprox(m, f, 0, 1.0)
		// Both are subsets; the strict one must be safe.
		if Density(m, strict) < Density(m, f)-1e-9 {
			t.Fatal("strict RUA lost density")
		}
		if !m.Leq(loose, f) || !m.Leq(strict, f) {
			t.Fatal("containment violated")
		}
		for _, r := range []bdd.Ref{f, loose, strict} {
			m.Deref(r)
		}
	}
}

// TestIteratedRemap: the compound iterated RUA remains a safe subset.
func TestIteratedRemap(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(1999))
	for iter := 0; iter < 15; iter++ {
		f := buildRandom(m, rng, n, 7)
		g := IteratedRemap(m, f, 0, 2.0, 0.5)
		if !m.Leq(g, f) {
			t.Fatal("iterated RUA not contained")
		}
		if Density(m, g) < Density(m, f)-1e-9 {
			t.Fatal("iterated RUA lost density")
		}
		m.Deref(f)
		m.Deref(g)
	}
}

// TestQuickContainmentProperty uses testing/quick over random seeds: for
// any seed, RUA and UA produce subsets and RUA with quality 1 is safe.
func TestQuickContainmentProperty(t *testing.T) {
	const n = 9
	prop := func(seed int64) bool {
		m := bdd.New(n)
		rng := rand.New(rand.NewSource(seed))
		f := buildRandom(m, rng, n, 6)
		defer m.Deref(f)
		rua := RemapUnderApprox(m, f, 0, 1.0)
		defer m.Deref(rua)
		ua := UnderApprox(m, f, 0, 0.5)
		defer m.Deref(ua)
		if !m.Leq(rua, f) || !m.Leq(ua, f) {
			return false
		}
		return Density(m, rua) >= Density(m, f)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMintermAccounting: the internal estimate of remaining minterms agrees
// with the exact count of the built result (validates the weight
// propagation of markNodes).
func TestMintermAccounting(t *testing.T) {
	const n = 10
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(606))
	for iter := 0; iter < 30; iter++ {
		f := buildRandom(m, rng, n, 6)
		if f.IsConstant() {
			m.Deref(f)
			continue
		}
		in := analyze(m, f)
		markNodes(in, f, 0, 1.0)
		g := buildResult(in, f)
		want := in.resultFrac
		got := count.Fraction(m, g)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("estimated fraction %v, actual %v", want, got)
		}
		m.Deref(f)
		m.Deref(g)
	}
}
