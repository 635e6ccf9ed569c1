package main

// The corpus workload is Tables 2–4: functions from the
// bench.PaperCorpus() pool go through the six approximation operators with
// the Table 2/3 parameters and the four decomposition selectors, at
// Workers=1. Approximation and decomposition do nearly all the work; there
// is no image step.
//
// A set-up builds the whole pool (85 functions), as bench.Build does, with
// a span around each call into model, circuit and gauntlet. All ten
// operators over the pool take about 40 s, so a pass runs a seed-drawn
// subset: goldens.json ranks the pool by the operators' cost at the commit
// that recorded it, adjacent ranks form pairs of near-equal cost, and a
// pass runs one function of each pair in a fixed spread of eleven pairs.
// The seed picks the function of each pair but the costliest, anew for
// each pass: a pass's slowest requests, where p99_ms lies, all come from
// its costliest function, so the cheaper function of that pair runs for
// every seed. Every pass therefore runs the same cost profile over
// different functions, which keeps the pass time and the latencies
// comparable across seeds, and drawing per pass keeps a run's median
// request from resting on one draw. The costliest function of the pool has
// no partner and is never drawn.
//
// Before each function its manager is garbage collected and its computed
// table cleared, untimed: a user approximates a function once, so a pass
// must not replay the previous pass's cache hits, and a function's cost
// must not depend on which functions of its circuit ran before it. One
// request is one operator call on one function, as a user approximates or
// decomposes a function; a decomposition's point selection and Decompose
// are one request. Every result passes the oracle's under-approximation
// and exact-recomposition checks, McMillan's factors conjoin back to f,
// and node and exact minterm counts equal goldens.json.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/bench"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/decomp"
	"bddkit/internal/model"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
	"bddkit/internal/oracle"
)

// corpusSetups is how many times a run builds the pool; setup_s is their
// median.
const corpusSetups = 3

// Pairs of the ranked pool that a pass draws from: every fourth pair,
// offset so that the costliest drawn pair is the costliest complete one.
const (
	corpusPairStride = 4
	corpusPairOffset = 1
)

type poolFn struct {
	name  string
	m     *bdd.Manager
	f     bdd.Ref
	nodes int
}

// buildPool builds the bench.PaperCorpus() pool exactly as bench.Build
// does, on explicit Workers=1 managers, with a span around each call into
// model, circuit and gauntlet under root. It repeats bench.Build's loop
// rather than calling it because the set-up's per-layer split
// (circuit.compile_s) needs those spans and bench.Build has no hook for
// them; freshPool checks the result against goldens.json.
func buildPool(root *span) ([]poolFn, error) {
	cfg := bench.PaperCorpus()
	var pool []poolFn
	keep := func(name string, m *bdd.Manager, f bdd.Ref) {
		if sz := m.DagSize(f); sz >= cfg.MinNodes {
			pool = append(pool, poolFn{name: name, m: m, f: m.Ref(f), nodes: sz})
		}
		m.Deref(f)
	}
	netlist := func(name string, gen func() *circuit.Netlist) *circuit.Netlist {
		sp := root.child("model.netlist", obs.Str("netlist", name))
		nl := gen()
		sp.end()
		return nl
	}
	compile := func(nl *circuit.Netlist, outputs, static bool) error {
		c := beginCall(root, "circuit.compile", nil, obs.Str("netlist", nl.Name))
		cc, err := circuit.Compile(nl, circuit.CompileOptions{
			SkipNextVars: !outputs,
			StaticOrder:  static,
			BDDConfig:    &bdd.Config{Workers: 1},
		})
		c.end()
		if err != nil {
			return fmt.Errorf("compile %s: %w", nl.Name, err)
		}
		suffix := ""
		if static {
			suffix = "/static"
		}
		kept := 0
		if outputs {
			for i, f := range cc.Next {
				if cfg.MaxPerGroup > 0 && kept >= cfg.MaxPerGroup {
					break
				}
				keep(fmt.Sprintf("%s/ns%d%s", nl.Name, i, suffix), cc.M, cc.M.Ref(f))
				kept++
			}
		}
		for i, f := range cc.Outputs {
			if cfg.MaxPerGroup > 0 && kept >= cfg.MaxPerGroup {
				break
			}
			keep(fmt.Sprintf("%s/%s%s", nl.Name, nl.OutName[i], suffix), cc.M, cc.M.Ref(f))
			kept++
		}
		cc.Release()
		return nil
	}

	for _, n := range cfg.MultSizes {
		for _, static := range []bool{false, true} {
			nl := netlist("mult", func() *circuit.Netlist { return model.MultiplierNetlist(n) })
			if err := compile(nl, false, static); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range cfg.HWBSizes {
		m := bdd.NewWithConfig(n, bdd.Config{Workers: 1})
		vars := make([]int, n)
		for i := range vars {
			vars[i] = i
		}
		c := beginCall(root, "model.hwb", m, obs.Int("vars", n))
		f := model.HWB(m, vars)
		c.end()
		keep(fmt.Sprintf("hwb%d", n), m, f)
	}
	for s := 0; s < cfg.RandCones; s++ {
		nl := netlist("randlogic", func() *circuit.Netlist {
			return model.RandomLogicNetlist(model.RandomLogicConfig{
				Inputs: cfg.RandInputs, Gates: cfg.RandGates, Seed: int64(1000 + s),
			})
		})
		if err := compile(nl, false, false); err != nil {
			return nil, err
		}
	}
	for _, p := range cfg.Gauntlet {
		m := bdd.NewWithConfig(p.Vars(), bdd.Config{Workers: 1})
		c := beginCall(root, "gauntlet.build", m, obs.Str("instance", p.Name()))
		f, err := gauntlet.Build(m, p)
		c.end()
		if err != nil {
			return nil, fmt.Errorf("gauntlet %s: %w", p.Name(), err)
		}
		pool = append(pool, poolFn{name: "gauntlet/" + p.Name(), m: m, f: f, nodes: m.DagSize(f)})
	}
	if cfg.WithModels {
		for _, gen := range []func() *circuit.Netlist{
			func() *circuit.Netlist { return model.Am2910(model.Am2910Full()) },
			func() *circuit.Netlist { return model.S1269(model.S1269Full()) },
			func() *circuit.Netlist { return model.S3330(model.S3330Full()) },
			func() *circuit.Netlist { return model.S5378(model.S5378Full()) },
		} {
			if err := compile(netlist("model", gen), true, false); err != nil {
				return nil, err
			}
		}
	}
	return pool, nil
}

func releasePool(pool []poolFn) {
	for _, fn := range pool {
		fn.m.Deref(fn.f)
	}
}

// corpusOps names the ten operator results in goldens.json.
var corpusOps = []string{"rua", "hb", "sp", "ua", "c1", "c2", "cofactor", "disjoint", "band", "mcmillan"}

// corpusResult holds the results of the ten operators on one function.
type corpusResult struct {
	approx [6]bdd.Ref     // rua, hb, sp, ua, c1, c2
	pairs  [3]decomp.Pair // cofactor, disjoint, band
	mcm    []bdd.Ref      // McMillan's factors
}

// applyOperators runs the Table 2/3 approximation protocol and the Table 4
// decompositions plus McMillan's on f, with a span per call under root,
// and returns each operator's latency in ms, in corpusOps order; a
// decomposition's latency covers its point selection and Decompose. The
// HB, SP and C2 thresholds are |RUA(f)|, as in Table 2.
func applyOperators(root *span, m *bdd.Manager, f bdd.Ref) (corpusResult, []float64) {
	var r corpusResult
	var lat []float64
	call := func(name string, run func(), attrs ...obs.Attr) time.Duration {
		c := beginCall(root, name, m, attrs...)
		t0 := time.Now()
		run()
		el := time.Since(t0)
		c.end()
		return el
	}
	op := func(el time.Duration) { lat = append(lat, millis(el)) }

	op(call("approx.rua", func() { r.approx[0] = approx.RemapUnderApprox(m, f, 0, 1.0) }))
	th := m.DagSize(r.approx[0])
	op(call("approx.hb", func() { r.approx[1] = approx.HeavyBranch(m, f, th) }))
	op(call("approx.sp", func() { r.approx[2] = approx.ShortPaths(m, f, th) }))
	op(call("approx.ua", func() { r.approx[3] = approx.UnderApprox(m, f, 0, 0.5) }))
	op(call("approx.c1", func() { r.approx[4] = approx.Compound1(m, f, 0, 1.0) }))
	op(call("approx.c2", func() { r.approx[5] = approx.Compound2(m, f, th, 1.0) }))

	op(call("decomp.cofactor", func() { r.pairs[0] = decomp.Cofactor(m, f) }))
	var pts decomp.Points
	el := call("decomp.disjoint_points", func() { pts = decomp.DisjointPoints(m, f, decomp.DefaultDisjointConfig()) })
	op(el + call("decomp.decompose", func() { r.pairs[1] = decomp.Decompose(m, f, pts) }, obs.Str("points", "disjoint")))
	el = call("decomp.band_points", func() { pts = decomp.BandPoints(m, f, decomp.DefaultBandConfig()) })
	op(el + call("decomp.decompose", func() { r.pairs[2] = decomp.Decompose(m, f, pts) }, obs.Str("points", "band")))
	op(call("decomp.mcmillan", func() { r.mcm = decomp.McMillan(m, f) }))
	return r, lat
}

func (r corpusResult) release(m *bdd.Manager) {
	for _, g := range r.approx {
		m.Deref(g)
	}
	for _, p := range r.pairs {
		p.Deref(m)
	}
	for _, g := range r.mcm {
		m.Deref(g)
	}
}

// outputs lists each operator's result DAGs, in corpusOps order.
func (r corpusResult) outputs() [][]bdd.Ref {
	var outs [][]bdd.Ref
	for _, g := range r.approx {
		outs = append(outs, []bdd.Ref{g})
	}
	for _, p := range r.pairs {
		outs = append(outs, []bdd.Ref{p.G, p.H})
	}
	return append(outs, r.mcm)
}

// describe records node and exact minterm counts of each result.
func (r corpusResult) describe(m *bdd.Manager) (map[string]opGolden, error) {
	out := make(map[string]opGolden, len(corpusOps))
	for i, refs := range r.outputs() {
		var g opGolden
		for _, f := range refs {
			n, err := count.Minterms(m, f, m.NumVars())
			if err != nil {
				return nil, err
			}
			g.Nodes = append(g.Nodes, m.DagSize(f))
			g.Minterms = append(g.Minterms, n.String())
		}
		out[corpusOps[i]] = g
	}
	return out, nil
}

// checkOperators verifies one function's ten results: one verdict per
// operator. The oracle checks are independent of the operators; the
// goldens pin the exact Table 2–4 outcomes.
func checkOperators(v *verdict, chk *oracle.Checker, fn poolFn, r corpusResult, want corpusGolden) {
	m, f := fn.m, fn.f
	got, descErr := r.describe(m)
	for i, op := range corpusOps {
		err := descErr
		if err == nil {
			switch {
			case i < 6:
				err = chk.CheckUnderApprox(m, f, r.approx[i], op)
			case i < 9:
				err = chk.CheckConjPair(m, f, r.pairs[i-6], op)
			default:
				all := decomp.ConjoinAll(m, r.mcm)
				if all != f {
					err = fmt.Errorf("mcmillan: factors do not conjoin to f")
				}
				m.Deref(all)
			}
		}
		if err == nil && !sameOp(got[op], want.Ops[op]) {
			err = fmt.Errorf("%s: nodes %v minterms %v, want nodes %v minterms %v",
				op, got[op].Nodes, got[op].Minterms, want.Ops[op].Nodes, want.Ops[op].Minterms)
		}
		if err != nil {
			err = fmt.Errorf("corpus %s: %w", fn.name, err)
		}
		v.record(err)
	}
}

func sameOp(a, b opGolden) bool {
	return fmt.Sprint(a.Nodes, a.Minterms) == fmt.Sprint(b.Nodes, b.Minterms)
}

// freshPool builds the pool under a set-up span and checks it against the
// ranked pool in goldens.json.
func freshPool(log *spanLog, i int) ([]poolFn, error) {
	root := log.begin(nil, setupSpan, obs.Int("setup", i))
	pool, err := buildPool(root)
	root.end()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]poolFn, len(pool))
	for _, fn := range pool {
		byName[fn.name] = fn
	}
	if len(pool) != len(goldens.Corpus) {
		return nil, fmt.Errorf("pool has %d functions, goldens.json ranks %d", len(pool), len(goldens.Corpus))
	}
	for _, g := range goldens.Corpus {
		fn, ok := byName[g.Name]
		if !ok || fn.nodes != g.Nodes {
			return nil, fmt.Errorf("pool function %s missing or resized (goldens.json: %d nodes)", g.Name, g.Nodes)
		}
	}
	return pool, nil
}

// spreadPairs lists the ranks in goldens.Corpus of the pairs a pass runs
// a function of, cheapest first.
func spreadPairs() [][2]int {
	var pairs [][2]int
	for j := corpusPairOffset; 2*j+1 < len(goldens.Corpus); j += corpusPairStride {
		pairs = append(pairs, [2]int{2 * j, 2*j + 1})
	}
	return pairs
}

// drawable splits the pool into the functions a pass may run and the rest.
func drawable(pool []poolFn) (in, rest []poolFn) {
	names := make(map[string]bool)
	pairs := spreadPairs()
	for k, p := range pairs {
		names[goldens.Corpus[p[0]].Name] = true
		if k < len(pairs)-1 {
			names[goldens.Corpus[p[1]].Name] = true
		}
	}
	for _, fn := range pool {
		if names[fn.name] {
			in = append(in, fn)
		} else {
			rest = append(rest, fn)
		}
	}
	return in, rest
}

// drawSubset picks one function from each pair of the spread: the seed's
// choice, except in the costliest pair.
func drawSubset(cfg *runConfig, pool []poolFn) ([]poolFn, []corpusGolden) {
	byName := make(map[string]poolFn, len(pool))
	for _, fn := range pool {
		byName[fn.name] = fn
	}
	var fns []poolFn
	var want []corpusGolden
	pairs := spreadPairs()
	for k, p := range pairs {
		pick := p[0]
		if k < len(pairs)-1 {
			pick += cfg.rng.Intn(2)
		}
		g := goldens.Corpus[pick]
		fns = append(fns, byName[g.Name])
		want = append(want, g)
	}
	return fns, want
}

// resetManager garbage collects m and clears its computed table, so each
// function's operators start from the same state whatever ran before them
// on the manager it shares with other functions of its circuit.
func resetManager(m *bdd.Manager) {
	m.GarbageCollect()
	m.ClearCache()
}

func runCorpus(cfg *runConfig) (*outcome, error) {
	out := &outcome{workers: 1}
	var pool []poolFn
	for i := 0; i < corpusSetups; i++ {
		if pool != nil {
			releasePool(pool)
			pool = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		log := cfg.log // every set-up is traced in a traced run
		out.calibrate()
		t0 := time.Now()
		var err error
		pool, err = freshPool(log, i)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, measure{t0, time.Now(), seconds(time.Since(t0))})
	}
	pool, rest := drawable(pool)
	releasePool(rest)
	runtime.GC()
	debug.FreeOSMemory()
	defer releasePool(pool)

	chk := oracle.NewChecker(cfg.seed)
	counted := make(map[string]bool)
	out.calibrate()
	start := time.Now()
	for pass := 0; !cfg.enough(start, pass); pass++ {
		passStart := time.Now()
		log := cfg.passLog(pass)
		fns, want := drawSubset(cfg, pool)
		order := cfg.rng.Perm(len(fns))
		root := log.begin(nil, passSpan, obs.Int("pass", pass))
		var passTime time.Duration
		var lat []float64
		for _, i := range order {
			fn := fns[i]
			if !counted[fn.name] {
				counted[fn.name] = true
				out.verdict.record(checkMinterms(fn, want[i]))
			}
			out.calibrateDue()
			resetManager(fn.m)
			fnRoot := root.child("corpus.function", obs.Str("fn", fn.name))
			t0 := time.Now()
			r, ops := applyOperators(fnRoot, fn.m, fn.f)
			passTime += time.Since(t0)
			fnRoot.end()
			lat = append(lat, ops...)
			checkOperators(&out.verdict, chk, fn, r, want[i])
			r.release(fn.m)
		}
		root.end()
		out.addPass(passStart, log != nil, 0, passTime, lat)
	}
	out.calibrate()
	return out, nil
}

// checkMinterms checks a pool function's exact minterm count.
func checkMinterms(fn poolFn, want corpusGolden) error {
	n, err := count.Minterms(fn.m, fn.f, fn.m.NumVars())
	if err == nil && n.String() != want.Minterms {
		err = fmt.Errorf("corpus %s: %v minterms, want %s", fn.name, n, want.Minterms)
	}
	return err
}

// recordCorpus measures and describes every pool function: the ten
// operators run recordRepeats times from a reset manager, the median time
// becomes the function's cost, and the results of the first run become its
// goldens (every repeat must reproduce them). The result is ranked by
// cost, cheapest first.
func recordCorpus() ([]corpusGolden, error) {
	const recordRepeats = 3
	pool, err := buildPool(nil)
	if err != nil {
		return nil, err
	}
	defer releasePool(pool)
	var out []corpusGolden
	for _, fn := range pool {
		n, err := count.Minterms(fn.m, fn.f, fn.m.NumVars())
		if err != nil {
			return nil, err
		}
		g := corpusGolden{Name: fn.name, Nodes: fn.nodes, Minterms: n.String()}
		var times []float64
		for rep := 0; rep < recordRepeats; rep++ {
			resetManager(fn.m)
			t0 := time.Now()
			r, _ := applyOperators(nil, fn.m, fn.f)
			times = append(times, millis(time.Since(t0)))
			ops, err := r.describe(fn.m)
			r.release(fn.m)
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				g.Ops = ops
			}
			for _, op := range corpusOps {
				if !sameOp(ops[op], g.Ops[op]) {
					return nil, fmt.Errorf("%s: %s differs between repeats", fn.name, op)
				}
			}
		}
		g.CostMS = median(times)
		out = append(out, g)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CostMS < out[j].CostMS })
	return out, nil
}
