package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// evalBrute evaluates a reference truth table built over n variables by
// exhaustive enumeration, for cross-checking BDD operations.
func truthTable(m *Manager, f Ref, n int) []bool {
	tt := make([]bool, 1<<uint(n))
	a := make([]bool, n)
	for x := range tt {
		for v := 0; v < n; v++ {
			a[v] = x>>uint(v)&1 == 1
		}
		tt[x] = m.Eval(f, a)
	}
	return tt
}

func TestConstants(t *testing.T) {
	m := New(4)
	if One.IsComplement() || !Zero.IsComplement() {
		t.Fatal("constant complement bits wrong")
	}
	if !One.IsConstant() || !Zero.IsConstant() {
		t.Fatal("constants not constant")
	}
	if One.Complement() != Zero || Zero.Complement() != One {
		t.Fatal("complement of constants wrong")
	}
	if m.Eval(One, nil) != true || m.Eval(Zero, nil) != false {
		t.Fatal("Eval of constants wrong")
	}
}

func TestVariables(t *testing.T) {
	m := New(3)
	for i := 0; i < 3; i++ {
		v := m.IthVar(i)
		if m.Var(v) != i {
			t.Fatalf("Var(IthVar(%d)) = %d", i, m.Var(v))
		}
		if m.Hi(v) != One || m.Lo(v) != Zero {
			t.Fatalf("projection structure wrong for var %d", i)
		}
		a := make([]bool, 3)
		if m.Eval(v, a) {
			t.Fatal("var true under all-false assignment")
		}
		a[i] = true
		if !m.Eval(v, a) {
			t.Fatal("var false when set")
		}
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4)
	x, y := m.IthVar(0), m.IthVar(1)
	a := m.And(x, y)
	b := m.And(y, x)
	if a != b {
		t.Fatal("AND not canonical under argument order")
	}
	// De Morgan: ¬(x·y) == ¬x + ¬y
	na := m.Not(a)
	nb := m.Or(m.Not(x), m.Not(y))
	// Or returns an owned ref; Not(x) above leaked a ref but tests may.
	if na != nb {
		t.Fatal("De Morgan violated")
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestOpsAgainstBruteForce checks every connective, ITE and Leq against
// truth tables on both engines.
func TestOpsAgainstBruteForce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opsAgainstBruteForce(t, newPar(t, 5, workers))
		})
	}
}

func opsAgainstBruteForce(t *testing.T, m *Manager) {
	n := m.NumVars()
	rng := rand.New(rand.NewSource(42))
	// Build 40 random functions via random expression trees and check
	// every operator against truth tables.
	randFunc := func(depth int) Ref {
		var rec func(d int) Ref
		rec = func(d int) Ref {
			if d == 0 {
				v := m.IthVar(rng.Intn(n))
				if rng.Intn(2) == 0 {
					return m.Not(v)
				}
				return m.Ref(v)
			}
			a := rec(d - 1)
			b := rec(d - 1)
			var r Ref
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
		return rec(depth)
	}
	binary := []struct {
		name string
		op   func(f, g Ref) Ref
		want func(a, b bool) bool
	}{
		{"AND", m.And, func(a, b bool) bool { return a && b }},
		{"OR", m.Or, func(a, b bool) bool { return a || b }},
		{"NAND", m.Nand, func(a, b bool) bool { return !(a && b) }},
		{"NOR", m.Nor, func(a, b bool) bool { return !(a || b) }},
		{"XOR", m.Xor, func(a, b bool) bool { return a != b }},
		{"XNOR", m.Xnor, func(a, b bool) bool { return a == b }},
		{"IMPLIES", m.Implies, func(a, b bool) bool { return !a || b }},
		{"DIFF", m.Diff, func(a, b bool) bool { return a && !b }},
	}
	for i := 0; i < 40; i++ {
		f := randFunc(3)
		g := randFunc(3)
		tf, tg := truthTable(m, f, n), truthTable(m, g, n)
		for _, op := range binary {
			r := op.op(f, g)
			tr := truthTable(m, r, n)
			for x := range tf {
				if tr[x] != op.want(tf[x], tg[x]) {
					t.Fatalf("%s wrong at %d", op.name, x)
				}
			}
			m.Deref(r)
		}
		h := randFunc(2)
		th := truthTable(m, h, n)
		ite := m.ITE(f, g, h)
		tite := truthTable(m, ite, n)
		for x := range tf {
			want := th[x]
			if tf[x] {
				want = tg[x]
			}
			if tite[x] != want {
				t.Fatalf("ITE wrong at %d", x)
			}
		}
		// Leq agrees with the truth tables.
		leq := true
		for x := range tf {
			if tf[x] && !tg[x] {
				leq = false
				break
			}
		}
		if m.Leq(f, g) != leq {
			t.Fatal("Leq wrong")
		}
		for _, r := range []Ref{ite, f, g, h} {
			m.Deref(r)
		}
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestMintermCount(t *testing.T) {
	const n = 6
	m := New(n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		// Random function over n vars via random on-set.
		f := Zero
		for x := 0; x < 1<<n; x++ {
			if rng.Intn(4) != 0 {
				continue
			}
			cube := make([]int8, n)
			for v := 0; v < n; v++ {
				if x>>uint(v)&1 == 1 {
					cube[v] = LitPos
				} else {
					cube[v] = LitNeg
				}
			}
			c := m.CubeToRef(cube)
			nf := m.Or(f, c)
			m.Deref(c)
			m.Deref(f)
			f = nf
		}
		tt := truthTable(m, f, n)
		want := 0
		for _, b := range tt {
			if b {
				want++
			}
		}
		if got := m.CountMinterm(f, n); got != float64(want) {
			t.Fatalf("CountMinterm = %v, brute force = %d", got, want)
		}
		m.Deref(f)
	}
}

// TestQuantification checks Exists and ForAll against truth tables, and
// AndExists against Exists∘And, on both engines.
func TestQuantification(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			quantification(t, newPar(t, 5, workers))
		})
	}
}

func quantification(t *testing.T, m *Manager) {
	n := m.NumVars()
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		f := randomOnSet(m, rng, n, 0.4)
		v := rng.Intn(n)
		ex := m.Exists(f, []int{v})
		fa := m.ForAll(f, []int{v})
		tf := truthTable(m, f, n)
		te := truthTable(m, ex, n)
		ta := truthTable(m, fa, n)
		for x := 0; x < 1<<n; x++ {
			x1 := x | 1<<uint(v)
			x0 := x &^ (1 << uint(v))
			if te[x] != (tf[x1] || tf[x0]) {
				t.Fatal("Exists wrong")
			}
			if ta[x] != (tf[x1] && tf[x0]) {
				t.Fatal("ForAll wrong")
			}
		}
		// AndExists == Exists(And).
		g := randomOnSet(m, rng, n, 0.4)
		cube := m.CubeFromVars([]int{v, (v + 2) % n})
		ae := m.AndExists(f, g, cube)
		fg := m.And(f, g)
		exfg := m.ExistsCube(fg, cube)
		if ae != exfg {
			t.Fatal("AndExists != Exists∘And")
		}
		for _, r := range []Ref{f, g, ex, fa, cube, ae, fg, exfg} {
			m.Deref(r)
		}
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// randomOnSet builds a random function where each minterm is in the on-set
// with probability p.
func randomOnSet(m *Manager, rng *rand.Rand, n int, p float64) Ref {
	f := Zero
	cube := make([]int8, n)
	for x := 0; x < 1<<uint(n); x++ {
		if rng.Float64() >= p {
			continue
		}
		for v := 0; v < n; v++ {
			if x>>uint(v)&1 == 1 {
				cube[v] = LitPos
			} else {
				cube[v] = LitNeg
			}
		}
		c := m.CubeToRef(cube)
		nf := m.Or(f, c)
		m.Deref(c)
		m.Deref(f)
		f = nf
	}
	return f
}

func TestGarbageCollection(t *testing.T) {
	m := New(8)
	base := m.ReferencedNodeCount()
	var fs []Ref
	for i := 0; i < 7; i++ {
		f := m.And(m.IthVar(i), m.IthVar(i+1))
		fs = append(fs, f)
	}
	for _, f := range fs {
		m.Deref(f)
	}
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != base {
		t.Fatalf("leak: %d live internal nodes, want %d", got, base)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadNodeResurrection(t *testing.T) {
	m := New(4)
	f := m.And(m.IthVar(0), m.IthVar(1))
	m.Deref(f) // f is now dead but still in the table
	g := m.And(m.IthVar(0), m.IthVar(1))
	if f != g {
		t.Fatal("dead node not reused")
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	m.Deref(g)
}

func TestRestrictAgreesOnCareSet(t *testing.T) {
	const n = 5
	m := New(n)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		f := randomOnSet(m, rng, n, 0.5)
		c := randomOnSet(m, rng, n, 0.6)
		if c == Zero {
			m.Deref(f)
			continue
		}
		for name, op := range map[string]func(Ref, Ref) Ref{
			"restrict":  m.Restrict,
			"constrain": m.Constrain,
		} {
			r := op(f, c)
			// r·c == f·c
			rc := m.And(r, c)
			fc := m.And(f, c)
			if rc != fc {
				t.Fatalf("%s does not agree with f on care set", name)
			}
			m.Deref(r)
			m.Deref(rc)
			m.Deref(fc)
		}
		m.Deref(f)
		m.Deref(c)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictRemapFigure1 reproduces the remapping example of Figure 1 of
// the paper: when one child of the care set is Zero, restrict replaces the
// corresponding subgraph of f with the sibling, making the parent node
// redundant.
func TestRestrictRemapFigure1(t *testing.T) {
	m := New(3)
	x, y, z := m.IthVar(0), m.IthVar(1), m.IthVar(2)
	// f = x·(y·z) + ¬x·(y+z); c = x (else branch of c is 0).
	ft := m.And(y, z)
	fe := m.Or(y, z)
	f := m.ITE(x, ft, fe)
	r := m.Restrict(f, x)
	// The result must agree with f where x=1, i.e. equal f_t, and must not
	// contain x.
	if r != ft {
		t.Fatalf("Restrict did not remap to the then child: got %d nodes", m.DagSize(r))
	}
	for _, v := range m.SupportVars(r) {
		if v == 0 {
			t.Fatal("restricted function still depends on x")
		}
	}
	for _, ref := range []Ref{ft, fe, f, r} {
		m.Deref(ref)
	}
}

func TestMinimizeInterval(t *testing.T) {
	const n = 5
	m := New(n)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		a := randomOnSet(m, rng, n, 0.3)
		b := randomOnSet(m, rng, n, 0.5)
		l := m.And(a, b) // l ≤ u by construction
		u := m.Or(a, b)
		r := m.Minimize(l, u)
		if !m.Leq(l, r) || !m.Leq(r, u) {
			t.Fatal("Minimize left the interval")
		}
		if sz := m.DagSize(r); sz > m.DagSize(l) || sz > m.DagSize(u) {
			t.Fatal("Minimize not safe")
		}
		for _, ref := range []Ref{a, b, l, u, r} {
			m.Deref(ref)
		}
	}
}

func TestSqueezeInterval(t *testing.T) {
	const n = 6
	m := New(n)
	rng := rand.New(rand.NewSource(211))
	for iter := 0; iter < 40; iter++ {
		a := randomOnSet(m, rng, n, 0.35)
		b := randomOnSet(m, rng, n, 0.5)
		l := m.And(a, b)
		u := m.Or(a, b)
		r := m.Squeeze(l, u)
		if !m.Leq(l, r) || !m.Leq(r, u) {
			t.Fatal("Squeeze left the interval")
		}
		// Squeeze should exploit don't cares: never bigger than what
		// Minimize (which includes it as a candidate) settles on.
		mu := m.Minimize(l, u)
		if m.DagSize(mu) > m.DagSize(l) || m.DagSize(mu) > m.DagSize(u) {
			t.Fatal("Minimize not safe with Squeeze candidate")
		}
		for _, x := range []Ref{a, b, l, u, r, mu} {
			m.Deref(x)
		}
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestPermute(t *testing.T) {
	const n = 4
	m := New(n)
	rng := rand.New(rand.NewSource(5))
	perm := []int{2, 3, 0, 1}
	for iter := 0; iter < 20; iter++ {
		f := randomOnSet(m, rng, n, 0.5)
		g := m.Permute(f, perm)
		tf, tg := truthTable(m, f, n), truthTable(m, g, n)
		for x := 0; x < 1<<n; x++ {
			// assignment for g: variable perm[v] gets x's bit v.
			y := 0
			for v := 0; v < n; v++ {
				if x>>uint(v)&1 == 1 {
					y |= 1 << uint(perm[v])
				}
			}
			if tg[y] != tf[x] {
				t.Fatal("Permute wrong")
			}
		}
		m.Deref(f)
		m.Deref(g)
	}
}

func TestComposeDefinition(t *testing.T) {
	const n = 5
	m := New(n)
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20; iter++ {
		f := randomOnSet(m, rng, n, 0.5)
		g := randomOnSet(m, rng, n, 0.5)
		v := rng.Intn(n)
		got := m.Compose(f, v, g)
		// Shannon: f[v<-g] = g·f|v=1 + ¬g·f|v=0
		f1 := m.CofactorVar(f, v, true)
		f0 := m.CofactorVar(f, v, false)
		want := m.ITE(g, f1, f0)
		if got != want {
			t.Fatal("Compose disagrees with Shannon expansion")
		}
		for _, r := range []Ref{f, g, got, f1, f0, want} {
			m.Deref(r)
		}
	}
}

func TestSupportAndCubes(t *testing.T) {
	m := New(6)
	x0, x2, x5 := m.IthVar(0), m.IthVar(2), m.IthVar(5)
	t1 := m.And(x0, x2)
	f := m.Xor(t1, x5)
	vars := m.SupportVars(f)
	if len(vars) != 3 || vars[0] != 0 || vars[1] != 2 || vars[2] != 5 {
		t.Fatalf("support = %v", vars)
	}
	cube := m.PickOneCube(f)
	if cube == nil {
		t.Fatal("no cube for satisfiable function")
	}
	c := m.CubeToRef(cube)
	if !m.Leq(c, f) {
		t.Fatal("picked cube not contained in f")
	}
	m.Deref(t1)
	m.Deref(f)
	m.Deref(c)
}

func TestForEachCubeCoversFunction(t *testing.T) {
	const n = 4
	m := New(n)
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 10; iter++ {
		f := randomOnSet(m, rng, n, 0.4)
		union := Zero
		m.ForEachCube(f, func(cube []int8) bool {
			c := m.CubeToRef(cube)
			nu := m.Or(union, c)
			m.Deref(c)
			m.Deref(union)
			union = nu
			return true
		})
		if union != f {
			t.Fatal("cube enumeration does not reconstruct f")
		}
		m.Deref(union)
		m.Deref(f)
	}
}
