package oracle

import (
	"math"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
)

// TestQueensSequenceOracle: counts for n = 1..8 must reproduce the
// published sequence, with boards up to 16 variables double-checked by
// exhaustive truth-table evaluation.
func TestQueensSequenceOracle(t *testing.T) {
	maxN := 8
	if testing.Short() {
		maxN = 6
	}
	if err := CheckQueensSequence(maxN); err != nil {
		t.Fatal(err)
	}
}

// TestSamplerUniformity: 10k fixed-seed draws over the 10 solutions of
// queens5 must pass the Pearson chi-squared test at p = 0.01 (df = 9,
// critical value ~21.67).
func TestSamplerUniformity(t *testing.T) {
	p := gauntlet.Params{Family: gauntlet.FamilyQueens, N: 5}
	m, f, err := gauntlet.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Deref(f)
	if err := CheckSamplerUniform(m, f, p.Vars(), 10000, 1); err != nil {
		t.Fatal(err)
	}
	// A second seed: one lucky stream is not evidence.
	if err := CheckSamplerUniform(m, f, p.Vars(), 10000, 2); err != nil {
		t.Fatal(err)
	}
}

// TestCountInvarianceGauntlet runs the full invariance battery (ground
// truth, reorder, GC, Save/Load, small-manager rebuild) on every smoke
// instance.
func TestCountInvarianceGauntlet(t *testing.T) {
	for _, p := range gauntlet.SmallInstances() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			if testing.Short() && p.Vars() > 40 {
				t.Skip("large instance in -short mode")
			}
			if err := CheckCountInvariance(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEnumerateMinterms(t *testing.T) {
	m := bdd.New(4)
	f := m.Or(m.IthVar(0), m.IthVar(1))
	defer m.Deref(f)
	sols, err := EnumerateMinterms(m, f, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 12 {
		t.Fatalf("x0∨x1 over 4 vars has %d enumerated minterms, want 12", len(sols))
	}
	seen := map[[4]bool]bool{}
	for _, a := range sols {
		var k [4]bool
		copy(k[:], a)
		if seen[k] {
			t.Fatalf("minterm %v enumerated twice", a)
		}
		seen[k] = true
		if !Eval(m, f, a) {
			t.Fatalf("enumerated non-minterm %v", a)
		}
	}
	if _, err := EnumerateMinterms(m, f, 4, 5); err == nil {
		t.Fatal("enumeration past the cap must fail")
	}
	if _, err := EnumerateMinterms(m, f, 2, 64); err == nil {
		t.Fatal("a space below the manager's variable count must fail")
	}
}

// TestChiSquaredCritical pins the Wilson–Hilferty approximation against
// published table values at p = 0.01.
func TestChiSquaredCritical(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 6.635}, {4, 13.277}, {9, 21.666}, {99, 134.642},
	}
	for _, tc := range cases {
		got := chiSquaredCritical(tc.df)
		if math.Abs(got-tc.want) > 0.02*tc.want+0.05 {
			t.Errorf("chi2 crit df=%d: %v, table %v", tc.df, got, tc.want)
		}
	}
}

// FuzzGauntletParams drives Params decoding from arbitrary values:
// Validate must reject pathological boards with an error (never a panic
// or a monster allocation), and anything it accepts that is small enough
// must build, count to a value in [0, 2^vars], and match the family's
// ground truth when one is in range.
func FuzzGauntletParams(f *testing.F) {
	f.Add(uint8(0), 6, 0, 0, false, uint64(0))
	f.Add(uint8(1), 0, 3, 3, false, uint64(1))
	f.Add(uint8(2), 0, 2, 3, false, uint64(0))
	f.Add(uint8(3), 0, 3, 3, false, uint64(0))
	f.Add(uint8(4), 8, 0, 0, true, uint64(0))
	f.Add(uint8(0), -5, 1<<30, -9, true, uint64(9))
	f.Add(uint8(1), 0, 3, 3074457345618258603, false, uint64(3))
	f.Fuzz(func(t *testing.T, fam uint8, n, rows, cols int, fault bool, targetBits uint64) {
		fams := gauntlet.Families()
		p := gauntlet.Params{
			Family: fams[int(fam)%len(fams)],
			N:      n,
			Rows:   rows,
			Cols:   cols,
			Fault:  fault,
		}
		// Odd targetBits selects an explicit life target from the
		// remaining bits (possibly of the wrong length — Validate's job).
		if targetBits&1 == 1 {
			cells := int(targetBits >> 58 & 63)
			tgt := make([]bool, cells)
			for i := range tgt {
				tgt[i] = targetBits&(1<<uint(i+1)) != 0
			}
			p.Target = tgt
		}
		if err := p.Validate(); err != nil {
			return // graceful rejection is the contract for garbage
		}
		if p.Vars() > 30 {
			return // accepted but too big for a fuzz iteration
		}
		m, fn, err := gauntlet.New(p, nil)
		if err != nil {
			t.Fatalf("%s: validated params failed to build: %v", p.Name(), err)
		}
		c, err := count.Minterms(m, fn, p.Vars())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if c.Sign() < 0 || c.BitLen() > p.Vars()+1 {
			t.Fatalf("%s: absurd count %v over %d variables", p.Name(), c, p.Vars())
		}
		if want, ok := ExpectedCount(p); ok && c.Cmp(want) != 0 {
			t.Fatalf("%s: counted %v, ground truth %v", p.Name(), c, want)
		}
		m.Deref(fn)
		if err := m.DebugCheck(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	})
}
