package approx

import (
	"math/rand"
	"testing"

	"bddkit/internal/bdd"
)

// TestBiasedContainmentAndSafety: the biased variant remains a true,
// density-safe underapproximation for any bias set.
func TestBiasedContainmentAndSafety(t *testing.T) {
	const n = 11
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 25; iter++ {
		f := buildRandom(m, rng, n, 6)
		bias := buildRandom(m, rng, n, 4)
		g := BiasedUnderApprox(m, f, bias, 0, 1.0, 4.0)
		if !m.Leq(g, f) {
			t.Fatal("biased result not contained in f")
		}
		if Density(m, g) < Density(m, f)-1e-9 {
			t.Fatal("biased result lost density")
		}
		for _, r := range []bdd.Ref{f, bias, g} {
			m.Deref(r)
		}
	}
}

// TestBiasWeightOneIsRUA: weight 1 must reproduce plain RUA exactly.
func TestBiasWeightOneIsRUA(t *testing.T) {
	const n = 10
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 15; iter++ {
		f := buildRandom(m, rng, n, 6)
		bias := buildRandom(m, rng, n, 4)
		a := BiasedUnderApprox(m, f, bias, 0, 1.0, 1.0)
		b := RemapUnderApprox(m, f, 0, 1.0)
		if a != b {
			t.Fatal("weight 1 diverged from RUA")
		}
		for _, r := range []bdd.Ref{f, bias, a, b} {
			m.Deref(r)
		}
	}
}

// TestBiasProtectsBiasedMinterms: across a sample, the biased variant
// retains at least as many bias-set minterms as plain RUA on average.
func TestBiasProtectsBiasedMinterms(t *testing.T) {
	const n = 12
	m := bdd.New(n)
	rng := rand.New(rand.NewSource(4096))
	better, worse := 0, 0
	for iter := 0; iter < 30; iter++ {
		f := buildRandom(m, rng, n, 7)
		bias := buildRandom(m, rng, n, 5)
		plain := RemapUnderApprox(m, f, 0, 1.0)
		biased := BiasedUnderApprox(m, f, bias, 0, 1.0, 8.0)
		pb := m.And(plain, bias)
		bb := m.And(biased, bias)
		switch minterms(m, bb, n).Cmp(minterms(m, pb, n)) {
		case 1:
			better++
		case -1:
			worse++
		}
		for _, r := range []bdd.Ref{f, bias, plain, biased, pb, bb} {
			m.Deref(r)
		}
	}
	if better < worse {
		t.Fatalf("bias did not protect biased minterms (better %d, worse %d)", better, worse)
	}
	t.Logf("bias retained more bias-set minterms on %d cases, fewer on %d", better, worse)
}
