package count_test

import (
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
)

func TestSampleSatisfies(t *testing.T) {
	m, f, err := gauntlet.New(gauntlet.Params{Family: gauntlet.FamilyQueens, N: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Deref(f)
	s, err := count.NewSampler(m, f, m.NumVars(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count().Int64() != 4 {
		t.Fatalf("queens6 count = %v, want 4", s.Count())
	}
	for i := 0; i < 200; i++ {
		a := s.Sample()
		if len(a) != m.NumVars() {
			t.Fatalf("sample %d has %d bits, want %d", i, len(a), m.NumVars())
		}
		if !m.Eval(f, a) {
			t.Fatalf("sample %d does not satisfy the function: %v", i, a)
		}
	}
}

func TestSampleDeterminism(t *testing.T) {
	m, f, err := gauntlet.New(gauntlet.Params{Family: gauntlet.FamilyQueens, N: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Deref(f)
	s1, err := count.NewSampler(m, f, m.NumVars(), 99)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := count.NewSampler(m, f, m.NumVars(), 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a, b := s1.Sample(), s2.Sample()
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("sample %d diverges at variable %d under identical seeds", i, v)
			}
		}
	}
}

func TestSampleBeyond63Vars(t *testing.T) {
	const nVars = 70
	m := bdd.New(nVars)
	f := m.Ref(m.IthVar(0))
	defer m.Deref(f)
	s, err := count.NewSampler(m, f, nVars, 3)
	if err != nil {
		t.Fatal(err)
	}
	seenTrue, seenFalse := false, false
	for i := 0; i < 50; i++ {
		a := s.Sample()
		if len(a) != nVars {
			t.Fatalf("sample %d has %d bits, want %d", i, len(a), nVars)
		}
		if !a[0] {
			t.Fatalf("sample %d violates x0", i)
		}
		// The free variables must actually vary.
		if a[40] {
			seenTrue = true
		} else {
			seenFalse = true
		}
	}
	if !seenTrue || !seenFalse {
		t.Fatal("free variable x40 never varied across 50 samples")
	}
}

func TestSamplerRejectsUnsat(t *testing.T) {
	m := bdd.New(2)
	if _, err := count.NewSampler(m, bdd.Zero, 2, 1); err == nil {
		t.Fatal("sampling the zero function must fail")
	}
	f := m.Ref(m.IthVar(1))
	defer m.Deref(f)
	if _, err := count.NewSampler(m, f, 1, 1); err == nil {
		t.Fatal("sampling x1 over a 1-variable space must fail")
	}
}

// TestSampleFrequencies: with two equally likely solutions, a fixed-seed
// run must split close to evenly (the rigorous chi-squared uniformity
// check lives in internal/oracle; this is the cheap smoke version).
func TestSampleFrequencies(t *testing.T) {
	m := bdd.New(2)
	f := m.Xor(m.IthVar(0), m.IthVar(1))
	defer m.Deref(f)
	s, err := count.NewSampler(m, f, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 2000
	hits := 0
	for i := 0; i < draws; i++ {
		a := s.Sample()
		if !m.Eval(f, a) {
			t.Fatalf("sample %d unsatisfying", i)
		}
		if a[0] {
			hits++
		}
	}
	if hits < 900 || hits > 1100 {
		t.Fatalf("solution (1,0) drawn %d/%d times, want ~1000", hits, draws)
	}
}

// TestCountDeterminism: counts and sample streams must be bit-identical
// whether the diagram was built on a default manager or on one whose
// small arena, and the computed table sized from it, force growth,
// collections and evictions along the way — canonicity makes the ROBDD,
// and therefore everything derived from it, independent of the manager's
// memory history.
func TestCountDeterminism(t *testing.T) {
	p := gauntlet.Params{Family: gauntlet.FamilyQueens, N: 6}
	m1, f1, err := gauntlet.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Deref(f1)
	m4 := bdd.NewWithConfig(p.Vars(), bdd.Config{InitialNodes: 64})
	f4, err := gauntlet.Build(m4, p)
	if err != nil {
		t.Fatal(err)
	}
	defer m4.Deref(f4)

	c1, err := count.Minterms(m1, f1, p.Vars())
	if err != nil {
		t.Fatal(err)
	}
	c4, err := count.Minterms(m4, f4, p.Vars())
	if err != nil {
		t.Fatal(err)
	}
	if c1.Cmp(c4) != 0 {
		t.Fatalf("default manager counts %v, small manager counts %v", c1, c4)
	}
	s1, err := count.NewSampler(m1, f1, p.Vars(), 42)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := count.NewSampler(m4, f4, p.Vars(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a, b := s1.Sample(), s4.Sample()
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("sample %d diverges at variable %d across managers", i, v)
			}
		}
	}
	if err := m4.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}
