package bench

import (
	"fmt"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
)

// Fn is one corpus function: a BDD together with the manager that owns it.
// Functions from the same source circuit share a manager, mirroring the
// paper's setup (outputs and next-state functions of a circuit collection).
type Fn struct {
	Name  string
	M     *bdd.Manager
	F     bdd.Ref
	Nodes int
}

// CorpusConfig controls corpus generation. The paper's pool is "outputs
// and next state functions of a collection of circuits": 7157 functions of
// which the 336 with ≥5000 nodes enter Tables 2–4. Ours is drawn from
// array multipliers, hidden-weighted-bit functions, ALU/comparator slices,
// seeded random logic cones, and the next-state functions of the four
// Table 1 models.
type CorpusConfig struct {
	MinNodes    int   // size filter (the paper's 5000)
	MultSizes   []int // array multiplier operand widths
	HWBSizes    []int // hidden-weighted-bit variable counts
	RandCones   int   // number of seeded random logic cones
	RandInputs  int   // inputs per random cone
	RandGates   int   // gates per random cone
	WithModels  bool  // include sequential model next-state functions
	MaxPerGroup int   // cap functions kept per source (0 = all)

	// Gauntlet instances join the corpus unconditionally (the MinNodes
	// filter prunes the random pool, not the per-family fixtures — each
	// gauntlet function carries an independent exact solution count that
	// Tables 2–4 and the approximation-loss ledger are scored against).
	Gauntlet []gauntlet.Params

	// Observe, when non-nil, is the observability session every corpus
	// manager is built reporting to, so Tables 2–4 file their events and
	// quality-ledger records there.
	Observe *obs.Session
}

// SmallCorpus is sized for unit tests and the testing.B benchmarks.
func SmallCorpus() CorpusConfig {
	return CorpusConfig{
		MinNodes:   300,
		MultSizes:  []int{7},
		HWBSizes:   []int{18},
		RandCones:  6,
		RandInputs: 24,
		RandGates:  80,
		Gauntlet: []gauntlet.Params{
			{Family: gauntlet.FamilyQueens, N: 6},
			{Family: gauntlet.FamilyEquivAdder, N: 8, Fault: true},
		},
	}
}

// PaperCorpus approximates the paper's population at laptop scale: every
// function with at least 2000 nodes from the full source mix (the paper's
// 5000-node threshold over its 7157-function pool kept 336 BDDs; see
// EXPERIMENTS.md for the measured counts here).
func PaperCorpus() CorpusConfig {
	return CorpusConfig{
		MinNodes:   2000,
		MultSizes:  []int{8, 9, 10},
		HWBSizes:   []int{24, 26, 28, 30, 32},
		RandCones:  120,
		RandInputs: 36,
		RandGates:  150,
		WithModels: true,
		Gauntlet: []gauntlet.Params{
			{Family: gauntlet.FamilyQueens, N: 8},
			{Family: gauntlet.FamilyLife, Rows: 4, Cols: 4},
			{Family: gauntlet.FamilyHamiltonGrid, Rows: 3, Cols: 4},
			{Family: gauntlet.FamilyEquivAdder, N: 16, Fault: true},
		},
	}
}

// BigCorpusThreshold is the second filter of Table 4 (the paper's 20000).
const BigCorpusThreshold = 20000

// Build generates the corpus, keeping only functions whose BDDs meet the
// size threshold. Functions are deterministic across runs.
func Build(cfg CorpusConfig) ([]Fn, error) {
	var fns []Fn
	bddCfg := &bdd.Config{Observer: cfg.Observe.Observer()}
	keep := func(name string, m *bdd.Manager, f bdd.Ref) {
		sz := m.DagSize(f)
		if sz < cfg.MinNodes {
			m.Deref(f)
			return
		}
		fns = append(fns, Fn{Name: name, M: m, F: m.Ref(f), Nodes: sz})
		m.Deref(f)
	}
	fromNetlistOrdered := func(nl *circuit.Netlist, outputs, static bool) error {
		c, err := circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: !outputs, StaticOrder: static, BDDConfig: bddCfg})
		if err != nil {
			return err
		}
		suffix := ""
		if static {
			suffix = "/static"
		}
		kept := 0
		if outputs {
			for i, f := range c.Next {
				if cfg.MaxPerGroup > 0 && kept >= cfg.MaxPerGroup {
					break
				}
				keep(fmt.Sprintf("%s/ns%d%s", nl.Name, i, suffix), c.M, c.M.Ref(f))
				kept++
			}
		}
		for i, f := range c.Outputs {
			if cfg.MaxPerGroup > 0 && kept >= cfg.MaxPerGroup {
				break
			}
			keep(fmt.Sprintf("%s/%s%s", nl.Name, nl.OutName[i], suffix), c.M, c.M.Ref(f))
			kept++
		}
		c.Release()
		return nil
	}
	fromNetlist := func(nl *circuit.Netlist, outputs bool) error {
		return fromNetlistOrdered(nl, outputs, false)
	}
	for _, n := range cfg.MultSizes {
		// Both variable orders: the declaration order and the DFS static
		// order give structurally different BDDs of the same functions,
		// widening the corpus the way differently synthesized cones do.
		if err := fromNetlist(model.MultiplierNetlist(n), false); err != nil {
			return nil, err
		}
		if err := fromNetlistOrdered(model.MultiplierNetlist(n), false, true); err != nil {
			return nil, err
		}
	}
	for _, n := range cfg.HWBSizes {
		m := bdd.NewWithConfig(n, *bddCfg)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = i
		}
		keep(fmt.Sprintf("hwb%d", n), m, model.HWB(m, vars))
	}
	for s := 0; s < cfg.RandCones; s++ {
		nl := model.RandomLogicNetlist(model.RandomLogicConfig{
			Inputs: cfg.RandInputs, Gates: cfg.RandGates, Seed: int64(1000 + s),
		})
		if err := fromNetlist(nl, false); err != nil {
			return nil, err
		}
	}
	for _, p := range cfg.Gauntlet {
		m, f, err := gauntlet.New(p, cfg.Observe.Observer())
		if err != nil {
			return nil, err
		}
		fns = append(fns, Fn{Name: "gauntlet/" + p.Name(), M: m, F: f, Nodes: m.DagSize(f)})
	}
	if cfg.WithModels {
		for _, nl := range []*circuit.Netlist{
			model.Am2910(model.Am2910Full()),
			model.S1269(model.S1269Full()),
			model.S3330(model.S3330Full()),
			model.S5378(model.S5378Full()),
		} {
			if err := fromNetlist(nl, true); err != nil {
				return nil, err
			}
		}
	}
	return fns, nil
}

// Release frees every corpus function.
func Release(fns []Fn) {
	for _, fn := range fns {
		fn.M.Deref(fn.F)
	}
}

// Filter returns the subset of fns with at least minNodes nodes.
func Filter(fns []Fn, minNodes int) []Fn {
	var out []Fn
	for _, fn := range fns {
		if fn.Nodes >= minNodes {
			out = append(out, fn)
		}
	}
	return out
}
