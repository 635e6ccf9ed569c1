package oracle

import (
	"bytes"
	"fmt"
	"math/rand"

	"bddkit/internal/bdd"
)

// Random op-sequence stress driver: every manager operation is shadowed by
// the same operation on brute-force truth tables, and the two worlds are
// compared after each step. Garbage collection, dynamic reordering, and
// save/load round trips are interleaved with the functional operations, so
// the canonicity and reference-count checks of Manager.DebugCheck run
// against a manager in every phase of its lifecycle, not just a freshly
// built one.

// StressConfig parameterizes a stress run. The zero value selects the
// defaults via normalize.
type StressConfig struct {
	// Seed drives every random choice; equal seeds give equal runs.
	Seed int64
	// Steps is the number of operations performed (default 1000).
	Steps int
	// Vars is the number of manager variables; must stay within
	// MaxExhaustiveVars so the shadow tables remain exact (default 10).
	Vars int
	// Pool is the number of live functions maintained (default 24).
	Pool int
	// CheckEvery runs Manager.DebugCheck every k steps (default 1:
	// after every step, as the invariants demand).
	CheckEvery int
	// ReorderThreshold arms automatic sifting at this live-node count
	// (default 256, low enough to fire many times per run).
	ReorderThreshold int
}

func (cfg *StressConfig) normalize() {
	if cfg.Steps <= 0 {
		cfg.Steps = 1000
	}
	if cfg.Vars <= 0 {
		cfg.Vars = 10
	}
	if cfg.Vars > MaxExhaustiveVars {
		cfg.Vars = MaxExhaustiveVars
	}
	if cfg.Pool <= 0 {
		cfg.Pool = 24
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1
	}
	if cfg.ReorderThreshold <= 0 {
		cfg.ReorderThreshold = 256
	}
}

// StressResult summarizes a completed run.
type StressResult struct {
	Steps       int
	Ops         map[string]int // operation name -> times performed
	Reorderings int64          // sifting passes observed (auto + explicit)
	GCs         int64          // garbage collections observed
	PeakLive    int            // high-water mark of live nodes
}

// poolEntry pairs a live function with its exact shadow semantics.
type poolEntry struct {
	ref   bdd.Ref
	table Table
}

// RunStress executes the randomized operation sequence and returns an
// error at the first divergence between the manager and the shadow
// semantics, the first DebugCheck violation, or a reference-count leak at
// the end of the run.
func RunStress(cfg StressConfig) (StressResult, error) {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := bdd.New(cfg.Vars)
	m.EnableAutoReorder(cfg.ReorderThreshold)
	res := StressResult{Ops: make(map[string]int)}

	vars := make([]int, cfg.Vars)
	for i := range vars {
		vars[i] = i
	}
	varTable := func(v int) Table {
		t := NewTable(vars)
		bit := 1 << uint(v)
		for i := 0; i < t.Len(); i++ {
			t.Set(i, i&bit != 0)
		}
		return t
	}

	// verify compares a function against its shadow table exhaustively.
	verify := func(step int, op string, f bdd.Ref, want Table) error {
		a := make([]bool, cfg.Vars)
		for i := 0; i < want.Len(); i++ {
			for j := range vars {
				a[j] = i>>uint(j)&1 == 1
			}
			if Eval(m, f, a) != want.Get(i) {
				return fmt.Errorf("step %d: %s diverges from shadow semantics at %s",
					step, op, formatAssignment(a, vars))
			}
		}
		return nil
	}

	// Seed the pool with literals and small combinations.
	pool := make([]poolEntry, 0, cfg.Pool)
	for i := 0; i < cfg.Pool; i++ {
		v := rng.Intn(cfg.Vars)
		e := poolEntry{ref: m.Ref(m.IthVar(v)), table: varTable(v)}
		if rng.Intn(2) == 0 {
			e.ref = e.ref.Complement()
			e.table = e.table.Not()
		}
		pool = append(pool, e)
	}
	pick := func() *poolEntry { return &pool[rng.Intn(len(pool))] }

	// replace installs a fresh (ref, table) over a random pool slot,
	// releasing the previous occupant.
	replace := func(ref bdd.Ref, t Table) {
		slot := &pool[rng.Intn(len(pool))]
		m.Deref(slot.ref)
		slot.ref, slot.table = ref, t
	}

	for step := 1; step <= cfg.Steps; step++ {
		var (
			op       string
			ref      bdd.Ref
			want     Table
			produced bool
		)
		switch k := rng.Intn(16); {
		case k < 3: // ITE
			op = "ite"
			f, g, h := pick(), pick(), pick()
			ref = m.ITE(f.ref, g.ref, h.ref)
			want = f.table.Ite(g.table, h.table)
			produced = true
		case k < 5:
			op = "and"
			f, g := pick(), pick()
			ref = m.And(f.ref, g.ref)
			want = f.table.And(g.table)
			produced = true
		case k < 7:
			op = "xor"
			f, g := pick(), pick()
			ref = m.Xor(f.ref, g.ref)
			want = f.table.Xor(g.table)
			produced = true
		case k < 8:
			op = "not"
			f := pick()
			ref = m.Ref(f.ref.Complement())
			want = f.table.Not()
			produced = true
		case k < 10: // quantification over 1-2 variables
			forall := rng.Intn(2) == 0
			nq := 1 + rng.Intn(2)
			qvars := make([]int, nq)
			for i := range qvars {
				qvars[i] = rng.Intn(cfg.Vars)
			}
			f := pick()
			want = f.table
			for _, v := range qvars {
				want = want.Quant(v, forall)
			}
			if forall {
				op = "forall"
				ref = m.ForAll(f.ref, qvars)
			} else {
				op = "exists"
				ref = m.Exists(f.ref, qvars)
			}
			produced = true
		case k < 11: // relational product
			op = "andexists"
			f, g := pick(), pick()
			v := rng.Intn(cfg.Vars)
			cube := m.CubeFromVars([]int{v})
			ref = m.AndExists(f.ref, g.ref, cube)
			m.Deref(cube)
			want = f.table.And(g.table).Quant(v, false)
			produced = true
		case k < 13: // composition
			op = "compose"
			f, g := pick(), pick()
			v := rng.Intn(cfg.Vars)
			ref = m.Compose(f.ref, v, g.ref)
			want = f.table.Compose(v, g.table)
			produced = true
		case k < 14: // explicit GC interleaving
			op = "gc"
			m.GarbageCollect()
		case k < 15: // explicit reordering interleaving
			op = "reorder"
			if rng.Intn(2) == 0 {
				m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
			} else {
				m.Reorder(bdd.ReorderWindow3, bdd.SiftConfig{})
			}
		default: // save/load round trip of a pool sample
			op = "saveload"
			n := 1 + rng.Intn(3)
			names := make([]string, n)
			roots := make([]bdd.Ref, n)
			idx := make([]int, n)
			for i := 0; i < n; i++ {
				j := rng.Intn(len(pool))
				idx[i] = j
				names[i] = fmt.Sprintf("f%d", i)
				roots[i] = pool[j].ref
			}
			var buf bytes.Buffer
			if err := m.Save(&buf, names, roots); err != nil {
				return res, fmt.Errorf("step %d: save: %w", step, err)
			}
			loaded, err := m.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return res, fmt.Errorf("step %d: load: %w", step, err)
			}
			for i, name := range names {
				g := loaded[name]
				if g != roots[i] {
					return res, fmt.Errorf("step %d: save/load broke canonicity of %s", step, name)
				}
				if err := verify(step, "saveload", g, pool[idx[i]].table); err != nil {
					return res, err
				}
			}
			for _, g := range loaded {
				m.Deref(g)
			}
		}
		res.Ops[op]++
		if produced {
			if err := verify(step, op, ref, want); err != nil {
				return res, err
			}
			replace(ref, want)
		}
		if step%cfg.CheckEvery == 0 {
			if err := m.DebugCheck(); err != nil {
				return res, fmt.Errorf("step %d (%s): DebugCheck: %w", step, op, err)
			}
		}
	}

	// Reference accounting: releasing the pool must leave exactly the
	// permanent nodes (the projection function of each variable) live.
	for i := range pool {
		m.Deref(pool[i].ref)
	}
	m.GarbageCollect()
	if got, want := m.ReferencedNodeCount(), cfg.Vars; got != want {
		return res, fmt.Errorf("after releasing the pool %d nodes stay referenced, want %d (leak or double free)", got, want)
	}
	if err := m.DebugCheck(); err != nil {
		return res, fmt.Errorf("final DebugCheck: %w", err)
	}

	st := m.Stats()
	res.Steps = cfg.Steps
	res.Reorderings = st.Reorderings
	res.GCs = st.GCs
	res.PeakLive = st.PeakLive
	return res, nil
}
