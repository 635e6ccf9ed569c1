package bdd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIteIdentitiesQuick(t *testing.T) {
	const n = 7
	prop := func(seed int64) bool {
		m := New(n)
		rng := rand.New(rand.NewSource(seed))
		f := randFromTrees(m, rng, n, 4)
		g := randFromTrees(m, rng, n, 4)
		h := randFromTrees(m, rng, n, 4)
		defer func() {
			m.Deref(f)
			m.Deref(g)
			m.Deref(h)
		}()
		// ITE(f,g,h) == (f∧g) ∨ (¬f∧h)
		ite := m.ITE(f, g, h)
		fg := m.And(f, g)
		nfh := m.And(f.Complement(), h)
		or := m.Or(fg, nfh)
		ok := ite == or
		// f ∧ ¬f == 0, f ∨ ¬f == 1, f ⊕ f == 0
		a := m.And(f, f.Complement())
		o := m.Or(f, f.Complement())
		x := m.Xor(f, f)
		ok = ok && a == Zero && o == One && x == Zero
		// De Morgan
		nand := m.Nand(f, g)
		orn := m.Or(f.Complement(), g.Complement())
		ok = ok && nand == orn
		// Xnor(f,g) == ¬Xor(f,g)
		ok = ok && m.Xnor(f, g) == m.Xor(f, g).Complement()
		for _, r := range []Ref{ite, fg, nfh, or, a, o, x, nand, orn} {
			m.Deref(r)
		}
		// Two extra Derefs for the Xnor/Xor pair created above.
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShannonExpansionQuick(t *testing.T) {
	const n = 7
	prop := func(seed int64) bool {
		m := New(n)
		rng := rand.New(rand.NewSource(seed))
		f := randFromTrees(m, rng, n, 5)
		defer m.Deref(f)
		for v := 0; v < n; v++ {
			f1 := m.CofactorVar(f, v, true)
			f0 := m.CofactorVar(f, v, false)
			back := m.ITE(m.IthVar(v), f1, f0)
			ok := back == f
			m.Deref(f1)
			m.Deref(f0)
			m.Deref(back)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExistsMonotoneQuick(t *testing.T) {
	const n = 8
	prop := func(seed int64) bool {
		m := New(n)
		rng := rand.New(rand.NewSource(seed))
		f := randFromTrees(m, rng, n, 5)
		defer m.Deref(f)
		vars := []int{rng.Intn(n), rng.Intn(n)}
		ex := m.Exists(f, vars)
		fa := m.ForAll(f, vars)
		ok := m.Leq(f, ex) && m.Leq(fa, f)
		// ∃ and ∀ are idempotent over the same variables.
		ex2 := m.Exists(ex, vars)
		ok = ok && ex2 == ex
		m.Deref(ex)
		m.Deref(fa)
		m.Deref(ex2)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCountPathVsCubes(t *testing.T) {
	const n = 6
	m := New(n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		f := randFromTrees(m, rng, n, 4)
		cubes := 0
		m.ForEachCube(f, func([]int8) bool { cubes++; return true })
		if got := m.CountPath(f); got != float64(cubes) {
			t.Fatalf("CountPath = %v, enumeration = %d", got, cubes)
		}
		m.Deref(f)
	}
}

func TestCubeFromVarsDuplicates(t *testing.T) {
	m := New(4)
	a := m.CubeFromVars([]int{2, 0, 2, 0})
	b := m.CubeFromVars([]int{0, 2})
	if a != b {
		t.Fatal("duplicate variables changed the cube")
	}
	m.Deref(a)
	m.Deref(b)
}

func TestClientCacheOps(t *testing.T) {
	m := New(4)
	op1 := m.CacheOp()
	op2 := m.CacheOp()
	if op1 == op2 {
		t.Fatal("CacheOp returned duplicate codes")
	}
	f := m.And(m.IthVar(0), m.IthVar(1))
	m.CacheInsert(op1, f, One, Zero, f)
	if r, ok := m.CacheLookup(op1, f, One, Zero); !ok || r != f {
		t.Fatal("client cache lookup failed")
	}
	if _, ok := m.CacheLookup(op2, f, One, Zero); ok {
		t.Fatal("client cache collided across op codes")
	}
	// GC with nothing to collect leaves the cache intact (all entries
	// still reference live nodes).
	m.GarbageCollect()
	if _, ok := m.CacheLookup(op1, f, One, Zero); !ok {
		t.Fatal("no-op GC dropped a valid cache entry")
	}
	// Once nodes can actually be freed the cache must be invalidated.
	m.Deref(f)
	if m.GarbageCollect() == 0 {
		t.Fatal("expected nodes to be collected")
	}
	if _, ok := m.CacheLookup(op1, f, One, Zero); ok {
		t.Fatal("cache survived a real garbage collection")
	}
}

func TestDumpDotSmoke(t *testing.T) {
	m := New(3)
	f := m.And(m.IthVar(0), m.Not(m.IthVar(1)))
	var sb strings.Builder
	if err := m.DumpDot(&sb, []string{"f"}, []Ref{f}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph BDD", "x0", "x1", "c1", "style=dotted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
	if err := m.DumpDot(&sb, []string{"f"}, []Ref{f, One}); err == nil {
		t.Fatal("mismatched names/roots not rejected")
	}
	m.Deref(f)
}

func TestDumpDotStyledFillsColors(t *testing.T) {
	m := New(3)
	f := m.And(m.IthVar(0), m.IthVar(1))
	var sb strings.Builder
	err := m.DumpDotStyled(&sb, []string{"f"}, []Ref{f}, DotOptions{
		NodeColor: func(id uint32) string {
			if id == f.ID() {
				return "/blues9/7"
			}
			return "" // other nodes stay unstyled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `style=filled, fillcolor="/blues9/7"`) {
		t.Fatalf("styled dot output missing fillcolor:\n%s", out)
	}
	if strings.Count(out, "fillcolor") != 1 {
		t.Fatalf("exactly one node should be filled:\n%s", out)
	}
	m.Deref(f)
}

func TestPanics(t *testing.T) {
	m := New(3)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("Var(constant)", func() { m.Var(One) })
	expectPanic("Hi(constant)", func() { m.Hi(One) })
	expectPanic("IthVar out of range", func() { m.IthVar(17) })
	expectPanic("Constrain by Zero", func() { m.Constrain(m.IthVar(0), Zero) })
	expectPanic("Restrict by Zero", func() { m.Restrict(m.IthVar(0), Zero) })
	expectPanic("Minimize inverted interval", func() {
		m.Minimize(One, Zero)
	})
	expectPanic("Deref unreferenced", func() {
		f := m.And(m.IthVar(0), m.IthVar(1))
		m.Deref(f)
		m.Deref(f)
	})
}

func TestStatsProgress(t *testing.T) {
	m := New(6)
	before := m.Stats()
	f := m.And(m.IthVar(0), m.IthVar(1))
	g := m.And(m.IthVar(0), m.IthVar(1)) // cache hit
	after := m.Stats()
	if after.UniqueLookups <= before.UniqueLookups {
		t.Fatal("unique lookups not counted")
	}
	if after.CacheHits <= before.CacheHits {
		t.Fatal("cache hit not counted")
	}
	m.Deref(f)
	m.Deref(g)
}

func TestAddVarAfterOps(t *testing.T) {
	m := New(2)
	f := m.Xor(m.IthVar(0), m.IthVar(1))
	v := m.AddVar()
	if m.NumVars() != 3 {
		t.Fatal("AddVar did not grow the variable count")
	}
	g := m.And(f, v)
	if m.SupportSize(g) != 3 {
		t.Fatal("new variable not usable")
	}
	minterms := 0
	for _, b := range truthTable(m, g, 3) {
		if b {
			minterms++
		}
	}
	if minterms != 2 {
		t.Fatalf("minterms with new var = %d", minterms)
	}
	m.Deref(f)
	m.Deref(g)
}

func TestGCUnderSmallArena(t *testing.T) {
	m := NewWithConfig(10, Config{InitialNodes: 4})
	rng := rand.New(rand.NewSource(8))
	// Heavy churn: build and drop many functions, forcing repeated arena
	// growth and collection; the structure must stay consistent.
	for i := 0; i < 200; i++ {
		f := randFromTrees(m, rng, 10, 5)
		m.Deref(f)
	}
	m.GarbageCollect()
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	if m.ReferencedNodeCount() != m.PermanentNodeCount()-1 {
		t.Fatalf("leak after churn: %d live, want %d",
			m.ReferencedNodeCount(), m.PermanentNodeCount()-1)
	}
}

func TestApproxAfterManualReorder(t *testing.T) {
	// Refs survive reordering; structural algorithms may then run on the
	// new order.
	const n = 10
	m := New(n)
	rng := rand.New(rand.NewSource(15))
	f := randFromTrees(m, rng, n, 6)
	before := truthTable(m, f, n)
	m.Reorder(ReorderSift, SiftConfig{})
	for x, b := range truthTable(m, f, n) {
		if b != before[x] {
			t.Fatal("reorder changed f")
		}
	}
	r := m.Restrict(f, f) // must be One
	if r != One {
		t.Fatal("Restrict(f,f) != One after reorder")
	}
	m.Deref(f)
	m.Deref(r)
}
