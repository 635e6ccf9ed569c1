package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSwapInPlacePreservesFunctions: every adjacent swap keeps each held
// function and the table's invariants, with dead nodes at the two levels
// it swaps. Before each swap a held function rooted at each of the two
// levels is released. Dead nodes hold no child references, so the swap
// frees them without touching their children: a second release would
// panic, and a lost one would show in the final leak check.
func TestSwapInPlacePreservesFunctions(t *testing.T) {
	const n = 6
	m := New(n)
	rng := rand.New(rand.NewSource(31))
	// Random functions with the top k variables quantified away, so
	// their roots sit at every level but the last.
	var fs []Ref
	var tts [][]bool
	for i := 0; i < 30; i++ {
		f := randomOnSet(m, rng, n, 0.5)
		if k := i % (n - 1); k > 0 {
			top := make([]int, k)
			for v := range top {
				top[v] = v
			}
			g := m.Exists(f, top)
			m.Deref(f)
			f = g
		}
		fs = append(fs, f)
		tts = append(tts, truthTable(m, f, n))
	}
	m.GarbageCollect()
	m.cache.clear()
	// Sweep the order down and back up.
	var swaps []int
	for lev := 0; lev < n-1; lev++ {
		swaps = append(swaps, lev)
	}
	for lev := n - 2; lev >= 0; lev-- {
		swaps = append(swaps, lev)
	}
	var deadX, deadY int
	for _, lev := range swaps {
		for _, l := range []int32{int32(lev), int32(lev + 1)} {
			for i, f := range fs {
				if nd := &m.nodes[f.index()]; nd.level == l && nd.ref == 1 {
					m.derefIndex(f.index())
					fs = append(fs[:i], fs[i+1:]...)
					tts = append(tts[:i], tts[i+1:]...)
					break
				}
			}
		}
		deadX += m.deadAtLevel(lev)
		deadY += m.deadAtLevel(lev + 1)
		m.noGC = true
		m.swapInPlace(lev)
		m.noGC = false
		if err := m.DebugCheck(); err != nil {
			t.Fatalf("after swap at level %d: %v", lev, err)
		}
		for i, f := range fs {
			got := truthTable(m, f, n)
			for x := range got {
				if got[x] != tts[i][x] {
					t.Fatalf("swap at level %d changed a function at minterm %d", lev, x)
				}
			}
		}
	}
	if deadX == 0 || deadY == 0 {
		t.Fatalf("the swaps met %d dead x nodes and %d dead y nodes, want both", deadX, deadY)
	}
	for _, f := range fs {
		m.Deref(f)
	}
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != n {
		t.Fatalf("%d nodes referenced after releasing everything, want the %d projections", got, n)
	}
}

// deadAtLevel counts the dead nodes stored at one level.
func (m *Manager) deadAtLevel(lev int) int {
	dead := 0
	for _, head := range m.subtables[lev].buckets {
		for idx := head; idx != nilIndex; idx = m.nodes[idx].next {
			if m.nodes[idx].ref == 0 {
				dead++
			}
		}
	}
	return dead
}

func TestReorderPreservesFunctions(t *testing.T) {
	const n = 8
	m := New(n)
	rng := rand.New(rand.NewSource(77))
	var fs []Ref
	var tts [][]bool
	for i := 0; i < 10; i++ {
		f := randomOnSet(m, rng, n, 0.45)
		fs = append(fs, f)
		tts = append(tts, truthTable(m, f, n))
	}
	m.Reorder(ReorderSift, SiftConfig{})
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		got := truthTable(m, f, n)
		for x := range got {
			if got[x] != tts[i][x] {
				t.Fatalf("reorder changed function %d at minterm %d", i, x)
			}
		}
	}
	// The level maps must remain inverse permutations.
	for v := 0; v < n; v++ {
		if int(m.levToVar[m.varToLev[v]]) != v {
			t.Fatal("varToLev/levToVar inconsistent")
		}
	}
	for _, f := range fs {
		m.Deref(f)
	}
}

// TestSiftingImprovesBadOrder checks that sifting recovers the linear-size
// order for the function x0·x_k + x1·x_{k+1} + ... whose interleaved order
// is exponential.
func TestSiftingImprovesBadOrder(t *testing.T) {
	const k = 7
	m := New(2 * k)
	// Deliberately bad pairing under the identity order: pair i with k+i.
	f := Zero
	for i := 0; i < k; i++ {
		p := m.And(m.IthVar(i), m.IthVar(k+i))
		nf := m.Or(f, p)
		m.Deref(p)
		m.Deref(f)
		f = nf
	}
	before := m.DagSize(f)
	m.Reorder(ReorderSiftConverge, SiftConfig{})
	after := m.DagSize(f)
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	// The optimal size is 2k+2 nodes (including the constant); allow a
	// small amount of slack since sifting is a local search.
	if after > 4*k {
		t.Fatalf("sifting left %d nodes (before %d, optimal ~%d)", after, before, 2*k+2)
	}
	if after >= before {
		t.Fatalf("sifting did not improve: before %d after %d", before, after)
	}
	m.Deref(f)
}

func TestAutoReorderTriggers(t *testing.T) {
	const k = 6
	m := New(2 * k)
	m.EnableAutoReorder(30)
	f := Zero
	for i := 0; i < k; i++ {
		p := m.And(m.IthVar(i), m.IthVar(k+i))
		nf := m.Or(f, p)
		m.Deref(p)
		m.Deref(f)
		f = nf
	}
	if m.Stats().Reorderings == 0 {
		t.Fatal("auto reorder never triggered")
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	// f must still be the intended function.
	a := make([]bool, 2*k)
	a[0], a[k] = true, true
	if !m.Eval(f, a) {
		t.Fatal("function corrupted by auto reorder")
	}
	m.Deref(f)
}

func TestReorderKeepsMintermCounts(t *testing.T) {
	const n = 10
	m := New(n)
	rng := rand.New(rand.NewSource(123))
	var fs []Ref
	var tables [][]bool
	for i := 0; i < 6; i++ {
		f := randFromTrees(m, rng, n, 5)
		fs = append(fs, f)
		tables = append(tables, truthTable(m, f, n))
	}
	m.Reorder(ReorderSift, SiftConfig{})
	for i, f := range fs {
		for x, b := range truthTable(m, f, n) {
			if b != tables[i][x] {
				t.Fatalf("function %d changed at minterm %d: %v -> %v", i, x, tables[i][x], b)
			}
		}
		m.Deref(f)
	}
}

// TestReorderWithArenaGrowth forces the node arena to grow during sifting
// (regression test: node pointers must not be held across makeNode calls
// inside swapInPlace, since the arena may be reallocated).
func TestReorderWithArenaGrowth(t *testing.T) {
	const n = 12
	cfg := DefaultConfig()
	cfg.InitialNodes = 2 // grow almost immediately
	m := NewWithConfig(n, cfg)
	rng := rand.New(rand.NewSource(5150))
	var fs []Ref
	var tts [][]bool
	for i := 0; i < 6; i++ {
		f := randFromTrees(m, rng, n, 6)
		fs = append(fs, f)
		tts = append(tts, truthTable(m, f, n))
	}
	m.Reorder(ReorderSiftConverge, SiftConfig{})
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		got := truthTable(m, f, n)
		for x := range got {
			if got[x] != tts[i][x] {
				t.Fatalf("function %d corrupted at %d", i, x)
			}
		}
		m.Deref(f)
	}
}

// randFromTrees builds a random function as a depth-d expression tree.
func randFromTrees(m *Manager, rng *rand.Rand, n, d int) Ref {
	if d == 0 {
		v := m.Ref(m.IthVar(rng.Intn(n)))
		if rng.Intn(2) == 0 {
			return v.Complement()
		}
		return v
	}
	a := randFromTrees(m, rng, n, d-1)
	b := randFromTrees(m, rng, n, d-1)
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

// TestForAllCubeTriggersAutoReorder is the regression test for operations
// that skipped the maybeReorder entry hook: ForAllCube, Nand, Nor, Xnor,
// Implies and Diff. A loop doing nothing but one of them on an
// over-threshold manager must trip automatic sifting, like every other
// hooked operation, in subtests workers=1 and workers=2.
func TestForAllCubeTriggersAutoReorder(t *testing.T) {
	ops := []struct {
		name string
		op   func(m *Manager, f, g Ref) Ref
	}{
		{"ForAllCube", (*Manager).ForAllCube},
		{"Nand", (*Manager).Nand},
		{"Nor", (*Manager).Nor},
		{"Xnor", (*Manager).Xnor},
		{"Implies", (*Manager).Implies},
		{"Diff", (*Manager).Diff},
	}
	for _, tc := range ops {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				const k = 6
				m := New(2 * k)
				// Build a function whose live count exceeds the threshold
				// while auto reordering is still off, plus the cubes used
				// as second operands, so the only operation that can
				// possibly trigger a reorder below is tc.op.
				f := Zero
				for i := 0; i < k; i++ {
					p := m.And(m.IthVar(i), m.IthVar(k+i))
					nf := m.Or(f, p)
					m.Deref(p)
					m.Deref(f)
					f = nf
				}
				cubes := make([]Ref, k)
				for i := range cubes {
					cubes[i] = m.CubeFromVars([]int{i, k + i})
				}
				want := tc.op(m, f, cubes[0])
				m.EnableAutoReorder(1) // live count is already far above this
				before := m.Stats().Reorderings
				for _, cube := range cubes {
					m.Deref(tc.op(m, f, cube))
				}
				if m.Stats().Reorderings == before {
					t.Fatalf("%s never entered maybeReorder on an over-threshold manager", tc.name)
				}
				// Refs survive sifting and stay canonical, so recomputing
				// the first result must land on the same Ref.
				m.DisableAutoReorder()
				got := tc.op(m, f, cubes[0])
				if got != want {
					t.Fatalf("%s result changed across sifting", tc.name)
				}
				m.Deref(got)
				m.Deref(want)
				if err := m.DebugCheck(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
