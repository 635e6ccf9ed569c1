package approx_test

import (
	"math"
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/oracle"
)

// TestSparseFunctionDensity: queens8 has 92 solutions over 64 variables, a
// minterm fraction near 5e-18, far below the 2^-53 spacing of float64
// values near 1. Its density must come out as the closed-form count over
// its size, and the density-driven operators must shrink it rather than
// see a zero-density function and return it unchanged.
func TestSparseFunctionDensity(t *testing.T) {
	p := gauntlet.Params{Family: gauntlet.FamilyQueens, N: 8}
	m, f, err := gauntlet.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Deref(f)
	want, ok := oracle.ExpectedCount(p)
	if !ok || want.Int64() != 92 {
		t.Fatalf("closed-form queens8 count = %v", want)
	}
	size := m.DagSize(f)
	if size != 2451 {
		t.Fatalf("|queens8| = %d, want 2451", size)
	}
	wantD := float64(want.Int64()) / float64(size)
	if got := approx.Density(m, f); math.Abs(got-wantD) > 1e-12*wantD {
		t.Fatalf("Density(queens8) = %v, want 92/2451 = %v", got, wantD)
	}
	ops := []struct {
		name string
		run  func() bdd.Ref
	}{
		{"RUA", func() bdd.Ref { return approx.RemapUnderApprox(m, f, 0, 1.0) }},
		{"UA", func() bdd.Ref { return approx.UnderApprox(m, f, 0, 0.5) }},
	}
	for _, op := range ops {
		g := op.run()
		if !m.Leq(g, f) {
			t.Errorf("%s(queens8) is not contained in queens8", op.name)
		}
		if s := m.DagSize(g); s >= size {
			t.Errorf("%s(queens8) has %d nodes, want fewer than %d", op.name, s, size)
		}
		m.Deref(g)
	}
}
