package count_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
)

// bruteCount enumerates all 2^nVars assignments and evaluates f on each —
// the independent oracle for small functions.
func bruteCount(m *bdd.Manager, f bdd.Ref, nVars int) *big.Int {
	total := int64(0)
	a := make([]bool, m.NumVars())
	for bits := 0; bits < 1<<uint(nVars); bits++ {
		for v := 0; v < nVars; v++ {
			a[v] = bits&(1<<uint(v)) != 0
		}
		if m.Eval(f, a) {
			total++
		}
	}
	return big.NewInt(total)
}

// randomDNF builds an OR of random AND-cubes over nVars variables; the
// caller owns the result.
func randomDNF(m *bdd.Manager, rng *rand.Rand, nVars, cubes int) bdd.Ref {
	f := m.Ref(bdd.Zero)
	for i := 0; i < cubes; i++ {
		c := m.Ref(bdd.One)
		for v := 0; v < nVars; v++ {
			switch rng.Intn(3) {
			case 0:
				c2 := m.And(c, m.IthVar(v))
				m.Deref(c)
				c = c2
			case 1:
				c2 := m.And(c, m.Nor(m.IthVar(v), m.IthVar(v)))
				m.Deref(c)
				c = c2
			}
		}
		f2 := m.Or(f, c)
		m.Deref(f)
		m.Deref(c)
		f = f2
	}
	return f
}

func TestMintermsConstants(t *testing.T) {
	m := bdd.New(5)
	if c, err := count.Minterms(m, bdd.One, 5); err != nil || c.Int64() != 32 {
		t.Fatalf("‖1‖ over 5 vars = %v (err %v), want 32", c, err)
	}
	if c, err := count.Minterms(m, bdd.Zero, 5); err != nil || c.Sign() != 0 {
		t.Fatalf("‖0‖ over 5 vars = %v (err %v), want 0", c, err)
	}
	// Extra variables beyond the manager's space are free.
	if c, err := count.Minterms(m, bdd.One, 8); err != nil || c.Int64() != 256 {
		t.Fatalf("‖1‖ over 8 vars = %v (err %v), want 256", c, err)
	}
	// Shrinking the space below a constant's (empty) support is exact.
	if c, err := count.Minterms(m, bdd.One, 0); err != nil || c.Int64() != 1 {
		t.Fatalf("‖1‖ over 0 vars = %v (err %v), want 1", c, err)
	}
}

func TestMintermsAgainstBruteForce(t *testing.T) {
	const nVars = 10
	m := bdd.New(nVars)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		f := randomDNF(m, rng, nVars, 1+rng.Intn(6))
		want := bruteCount(m, f, nVars)
		got, err := count.Minterms(m, f, nVars)
		if err != nil {
			t.Fatalf("fn %d: %v", i, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("fn %d: Minterms = %v, brute force = %v", i, got, want)
		}
		// The float sweep is exact below 2^53 minterms.
		if fc := math.Ldexp(count.Fraction(m, f), nVars); fc != float64(want.Int64()) {
			t.Fatalf("fn %d: Fraction·2^n = %v, brute force = %v", i, fc, want)
		}
		m.Deref(f)
	}
}

func TestMintermsBeyond63Vars(t *testing.T) {
	const nVars = 70
	m := bdd.New(nVars)
	// A single variable: 2^69 solutions, unrepresentable in int64.
	want := new(big.Int).Lsh(big.NewInt(1), nVars-1)
	if c, err := count.Minterms(m, m.IthVar(0), nVars); err != nil || c.Cmp(want) != 0 {
		t.Fatalf("‖x0‖ = %v (err %v), want 2^69", c, err)
	}
	// The full positive cube: exactly one solution.
	cube := m.Ref(bdd.One)
	for v := 0; v < nVars; v++ {
		c2 := m.And(cube, m.IthVar(v))
		m.Deref(cube)
		cube = c2
	}
	if c, err := count.Minterms(m, cube, nVars); err != nil || c.Int64() != 1 {
		t.Fatalf("‖cube‖ = %v (err %v), want 1", c, err)
	}
	// Its complement: 2^70 - 1, exercising exactness in the low bits.
	want = new(big.Int).Lsh(big.NewInt(1), nVars)
	want.Sub(want, big.NewInt(1))
	notCube := m.Not(cube)
	if c, err := count.Minterms(m, notCube, nVars); err != nil || c.Cmp(want) != 0 {
		t.Fatalf("‖¬cube‖ = %v (err %v), want 2^70-1", c, err)
	}
	m.Deref(cube)
	m.Deref(notCube)
}

func TestMintermsSupportChecks(t *testing.T) {
	m := bdd.New(4)
	f := m.Ref(m.IthVar(3))
	defer m.Deref(f)
	if _, err := count.Minterms(m, f, 2); err == nil {
		t.Fatal("counting x3 over a 2-variable space must fail")
	}
	if _, err := count.Minterms(m, f, -1); err == nil {
		t.Fatal("negative space must fail")
	}
	if _, err := count.MintermsOver(m, f, []int{0, 1}); err == nil {
		t.Fatal("counting x3 over {0,1} must fail")
	}
	if _, err := count.MintermsOver(m, f, []int{3, 3}); err == nil {
		t.Fatal("duplicate counting variable must fail")
	}
	if _, err := count.MintermsOver(m, f, []int{3, 7}); err == nil {
		t.Fatal("out-of-range counting variable must fail")
	}
}

func TestMintermsOver(t *testing.T) {
	m := bdd.New(4)
	f := m.And(m.IthVar(0), m.IthVar(2))
	defer m.Deref(f)
	if c, err := count.MintermsOver(m, f, []int{0, 2}); err != nil || c.Int64() != 1 {
		t.Fatalf("‖x0∧x2‖ over {0,2} = %v (err %v), want 1", c, err)
	}
	if c, err := count.MintermsOver(m, f, []int{0, 1, 2}); err != nil || c.Int64() != 2 {
		t.Fatalf("‖x0∧x2‖ over {0,1,2} = %v (err %v), want 2", c, err)
	}
	if c, err := count.MintermsOver(m, f, []int{0, 1, 2, 3}); err != nil || c.Int64() != 4 {
		t.Fatalf("‖x0∧x2‖ over all four = %v (err %v), want 4", c, err)
	}
}

func TestFractionAndWeightedHalf(t *testing.T) {
	const nVars = 8
	m := bdd.New(nVars)
	rng := rand.New(rand.NewSource(7))
	half := func(int) float64 { return 0.5 }
	for i := 0; i < 20; i++ {
		f := randomDNF(m, rng, nVars, 1+rng.Intn(5))
		want := float64(bruteCount(m, f, nVars).Int64()) / float64(int(1)<<nVars)
		if got := count.Fraction(m, f); math.Abs(got-want) > 1e-12 {
			t.Fatalf("fn %d: Fraction = %v, want %v", i, got, want)
		}
		if got := count.Weighted(m, f, half); math.Abs(got-want) > 1e-9 {
			t.Fatalf("fn %d: Weighted(1/2) = %v, want fraction %v", i, got, want)
		}
		m.Deref(f)
	}
}

// exactFraction returns ‖g‖/2^n from the exact count, rounded once.
func exactFraction(t *testing.T, m *bdd.Manager, g bdd.Ref) float64 {
	t.Helper()
	c, err := count.Minterms(m, g, m.NumVars())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := new(big.Float).SetMantExp(new(big.Float).SetInt(c), -m.NumVars()).Float64()
	return p
}

// TestFloatSweepOnSparseFunctions: the float sweep (Fraction, Weighted at
// 1/2, and the per-node Fractions table on every function below the root,
// both polarities) agrees with the exact count on functions whose
// fraction lies far below 2^-53. ¬x0∧…∧¬x53 is the complement of a node
// whose own fraction, 1 − 2^-54, rounds to 1 in float64, so any sweep
// that forms a complement as 1 − p counts it as 0.
func TestFloatSweepOnSparseFunctions(t *testing.T) {
	type instance struct {
		name string
		m    *bdd.Manager
		f    bdd.Ref
	}
	const n = 54
	m := bdd.New(n)
	allZero := m.Ref(bdd.One)
	for v := 0; v < n; v++ {
		c2 := m.And(allZero, m.IthVar(v).Complement())
		m.Deref(allZero)
		allZero = c2
	}
	cases := []instance{{"¬x0∧…∧¬x53", m, allZero}}
	for _, p := range []gauntlet.Params{
		{Family: gauntlet.FamilyQueens, N: 8},
		{Family: gauntlet.FamilyHamiltonKnight, Rows: 3, Cols: 4},
	} {
		gm, f, err := gauntlet.New(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{p.Name(), gm, f})
	}
	half := func(int) float64 { return 0.5 }
	agree := func(got, want float64) bool {
		return got == want || math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	for _, c := range cases {
		want := exactFraction(t, c.m, c.f)
		if c.f != bdd.Zero && want == 0 {
			t.Fatalf("%s: exact fraction rounds to 0", c.name)
		}
		if got := count.Fraction(c.m, c.f); !agree(got, want) {
			t.Errorf("%s: Fraction = %v, Minterms/2^n = %v", c.name, got, want)
		}
		if got := count.Weighted(c.m, c.f, half); !agree(got, want) {
			t.Errorf("%s: Weighted(1/2) = %v, Minterms/2^n = %v", c.name, got, want)
		}
		fr := count.NewFractions(c.m, c.f)
		seen := map[bdd.Ref]bool{}
		stack := []bdd.Ref{c.f, c.f.Complement()}
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[g] {
				continue
			}
			seen[g] = true
			if got, want := fr.Of(g), exactFraction(t, c.m, g); !agree(got, want) {
				t.Fatalf("%s: Fractions.Of(%v) = %v, Minterms/2^n = %v", c.name, g, got, want)
			}
			if !g.IsConstant() {
				stack = append(stack, c.m.Hi(g), c.m.Lo(g))
			}
		}
		c.m.Deref(c.f)
	}
}

func TestWeightedClosedForm(t *testing.T) {
	m := bdd.New(3)
	and := m.And(m.IthVar(0), m.IthVar(1))
	or := m.Or(m.IthVar(0), m.IthVar(1))
	defer m.Deref(and)
	defer m.Deref(or)
	w := func(v int) float64 { return []float64{0.3, 0.6, 0.9}[v] }
	if got := count.Weighted(m, and, w); math.Abs(got-0.18) > 1e-12 {
		t.Fatalf("P(x0∧x1) = %v, want 0.18", got)
	}
	if got := count.Weighted(m, or, w); math.Abs(got-0.72) > 1e-12 {
		t.Fatalf("P(x0∨x1) = %v, want 0.72", got)
	}
	// Weights are clamped to [0,1].
	wild := func(v int) float64 { return []float64{5, -3, 0.5}[v] }
	if got := count.Weighted(m, and, wild); math.Abs(got-0) > 1e-12 {
		t.Fatalf("clamped P(x0∧x1) = %v, want 0", got)
	}
}

// TestCountReorderGCInvariance: the count is a function of the Boolean
// function alone — sifting the order and collecting garbage must not
// change it.
func TestCountReorderGCInvariance(t *testing.T) {
	m, f, err := gauntlet.New(gauntlet.Params{Family: gauntlet.FamilyQueens, N: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Deref(f)
	n := m.NumVars()
	before, err := count.Minterms(m, f, n)
	if err != nil {
		t.Fatal(err)
	}
	if before.Int64() != 10 {
		t.Fatalf("queens5 count = %v, want 10", before)
	}
	m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
	m.GarbageCollect()
	after, err := count.Minterms(m, f, n)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cmp(before) != 0 {
		t.Fatalf("count changed across reorder+GC: %v -> %v", before, after)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}
