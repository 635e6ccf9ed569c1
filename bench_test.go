package bddkit_test

// One benchmark per table/figure of the paper's evaluation section, plus
// micro-benchmarks of the operations they are built from. The table
// benchmarks run the same code paths as `go run ./cmd/tables` at a scale
// that keeps `go test -bench=.` tractable; the full-scale numbers recorded
// in EXPERIMENTS.md come from `go run ./cmd/tables -paper`.

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/bench"
	"bddkit/internal/circuit"
	"bddkit/internal/decomp"
	"bddkit/internal/mc"
	"bddkit/internal/model"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

var (
	corpusOnce sync.Once
	corpus     []bench.Fn
)

func sharedCorpus(b *testing.B) []bench.Fn {
	corpusOnce.Do(func() {
		var err error
		corpus, err = bench.Build(bench.SmallCorpus())
		if err != nil {
			b.Fatal(err)
		}
	})
	if len(corpus) == 0 {
		b.Fatal("empty corpus")
	}
	return corpus
}

// BenchmarkTable1Reachability regenerates Table 1 (BFS vs HD+RUA vs HD+SP)
// at test scale. The managers are created inside RunTable1, so the worker
// count is plumbed through the package default; -cpu 1,4 then compares the
// serial engine against the work-stealing one.
func BenchmarkTable1Reachability(b *testing.B) {
	bdd.SetDefaultWorkers(runtime.GOMAXPROCS(0))
	defer bdd.SetDefaultWorkers(1)
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunTable1(bench.Table1Small())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
	peak, hits, n := 0, 0.0, 0
	for _, r := range rows {
		for _, mr := range []bench.MethodResult{r.BFS, r.RUA, r.SP} {
			if mr.PeakNodes > peak {
				peak = mr.PeakNodes
			}
			hits += mr.CacheHit
			n++
		}
	}
	b.ReportMetric(float64(peak), "peak-live-nodes")
	if n > 0 {
		b.ReportMetric(hits/float64(n), "cache-hit-rate")
	}
}

// BenchmarkTable2SimpleApprox regenerates Table 2 (F/HB/SP/UA/RUA).
func BenchmarkTable2SimpleApprox(b *testing.B) {
	fns := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bench.Table2(fns)
		if len(res.Rows) != 5 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable3CompoundApprox regenerates Table 3 (C1, C2).
func BenchmarkTable3CompoundApprox(b *testing.B) {
	fns := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bench.Table3(fns)
		if len(res.Rows) != 2 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable4Decomposition regenerates Table 4 (Cofactor/Disjoint/Band).
func BenchmarkTable4Decomposition(b *testing.B) {
	fns := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bench.Table4(fns, bench.SmallCorpus().MinNodes)
		if res.Cases == 0 {
			b.Fatal("no cases")
		}
	}
}

// BenchmarkFigure1Restrict exercises the restrict operator whose remapping
// step (Figure 1 of the paper) underlies the approximation algorithms.
func BenchmarkFigure1Restrict(b *testing.B) {
	nl := model.MultiplierNetlist(8)
	c, err := circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Release()
	m := c.M
	f := c.Outputs[8]
	care := c.Outputs[6]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.Restrict(f, care)
		m.Deref(r)
	}
}

// --- Micro-benchmarks of the substrate operations -------------------------

func buildMultiplierBit(b *testing.B, n, bit int) (*bdd.Manager, bdd.Ref, func()) {
	nl := model.MultiplierNetlist(n)
	c, err := circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: true})
	if err != nil {
		b.Fatal(err)
	}
	return c.M, c.Outputs[bit], c.Release
}

// BenchmarkITEMultiplier measures one hard ITE on a multiplier output bit.
// The computed table is cleared every iteration so each one redoes the full
// recursion (otherwise iteration 2 onward is a single cache probe), and the
// manager runs with GOMAXPROCS workers so -cpu 1,4 contrasts the serial and
// work-stealing engines on identical work.
func BenchmarkITEMultiplier(b *testing.B) {
	nl := model.MultiplierNetlist(8)
	cfg := bdd.DefaultConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	c, err := circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: true, BDDConfig: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Release()
	m := c.M
	f, g, h := c.Outputs[8], c.Outputs[7], c.Outputs[6]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCache()
		r := m.ITE(f, g, h)
		m.Deref(r)
	}
	b.StopTimer()
	st := m.Stats()
	b.ReportMetric(float64(st.PeakLive), "peak-live-nodes")
	if st.CacheLookups > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.CacheLookups), "cache-hit-rate")
	}
}

// BenchmarkGauntletBuild builds queens 8 on a fresh manager with
// GOMAXPROCS workers. A dead node releases its children at once on either
// engine, so every -cpu value reports the same peak-live-nodes (12,635).
// gcs may differ by one: each worker keeps a private chunk of free slots,
// so a parallel arena can run out a few chunks earlier (22 at one and two
// workers, 22 or 23 at four).
func BenchmarkGauntletBuild(b *testing.B) {
	p := gauntlet.Params{Family: gauntlet.FamilyQueens, N: 8}
	var st bdd.Stats
	for i := 0; i < b.N; i++ {
		m := bdd.NewWithConfig(p.Vars(), bdd.Config{Workers: runtime.GOMAXPROCS(0)})
		f, err := gauntlet.Build(m, p)
		if err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
		m.Deref(f)
	}
	b.ReportMetric(float64(st.PeakLive), "peak-live-nodes")
	b.ReportMetric(float64(st.GCs), "gcs")
}

func BenchmarkRemapUnderApprox(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 8)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := approx.RemapUnderApprox(m, f, 0, 1.0)
		m.Deref(r)
	}
}

func BenchmarkShortPaths(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 8)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := approx.ShortPaths(m, f, 100)
		m.Deref(r)
	}
}

func BenchmarkHeavyBranch(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 8)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := approx.HeavyBranch(m, f, 100)
		m.Deref(r)
	}
}

func BenchmarkDecomposeBand(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 7)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := decomp.Decompose(m, f, decomp.BandPoints(m, f, decomp.DefaultBandConfig()))
		p.Deref(m)
	}
}

// BenchmarkDisjointPoints measures Disjoint point selection alone on one
// corpus-sized function (bit 9 of the 9-bit multiplier, 4,398 nodes): a
// breadth-first walk, then DagSize and SharingSize for each of up to 256
// candidates.
func BenchmarkDisjointPoints(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 9, 9)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.DisjointPoints(m, f, decomp.DefaultDisjointConfig())
	}
}

func BenchmarkDecomposeCofactor(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 7)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := decomp.Cofactor(m, f)
		p.Deref(m)
	}
}

func BenchmarkSifting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, f, done := buildMultiplierBit(b, 7, 7)
		b.StartTimer()
		m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
		b.StopTimer()
		_ = f
		done()
		b.StartTimer()
	}
}

// BenchmarkSiftingTR is the per-layer benchmark of the adjacent swap on a
// traversal-shaped forest: one auto-sift configuration pass over the
// Table1Small am2910 circuit and its transition relation, started from
// the compiled order every iteration. It reports the live count the sift
// ends at.
func BenchmarkSiftingTR(b *testing.B) {
	var nl *circuit.Netlist
	for _, ck := range bench.Table1Small().Circuits {
		if ck.Name == "am2910" {
			nl = ck.Netlist
		}
	}
	c, err := circuit.Compile(nl, circuit.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Release()
	tr, err := reach.NewTR(c, reach.DefaultTROptions())
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Release()
	order := make([]int, c.M.NumVars())
	for lev := range order {
		order[lev] = c.M.VarAtLevel(lev)
	}
	live := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.M.SetOrder(order); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		live = c.M.Reorder(bdd.ReorderSift, bdd.SiftConfig{MaxVars: 64})
	}
	b.ReportMetric(float64(live), "live-nodes")
}

// BenchmarkTelemetry measures what telemetry costs a traversal. Each op
// compiles Table1Small's s1269 with auto-reorder on a serial manager,
// builds its transition relation and runs HD+RUA to completion: "off"
// builds the manager with no observer, "on" with a fresh sink whose
// tracer writes every span to io.Discard.
func BenchmarkTelemetry(b *testing.B) {
	var ck bench.Table1Circuit
	for _, c := range bench.Table1Small().Circuits {
		if c.Name == "s1269" {
			ck = c
		}
	}
	for _, mode := range []struct {
		name     string
		observer func() bdd.Observer
	}{
		{"off", func() bdd.Observer { return nil }},
		{"on", func() bdd.Observer { return obs.NewSink(obs.NewRegistry(), obs.NewTracer(io.Discard)) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := circuit.Compile(ck.Netlist, circuit.CompileOptions{
					AutoReorder: true,
					BDDConfig:   &bdd.Config{Workers: 1, Observer: mode.observer()},
				})
				if err != nil {
					b.Fatal(err)
				}
				tr, err := reach.NewTR(c, reach.DefaultTROptions())
				if err != nil {
					b.Fatal(err)
				}
				res := tr.HighDensity(c.Init, reach.Options{
					Subset:    reach.RUASubsetter(ck.RUAQuality),
					Threshold: ck.RUAThreshold,
				})
				if !res.Completed {
					b.Fatal("HD+RUA did not complete")
				}
				c.M.Deref(res.Reached)
				tr.Release()
				c.Release()
			}
		})
	}
}

func BenchmarkImageComputation(b *testing.B) {
	nl := model.Am2910(model.Am2910Small())
	c, err := circuit.Compile(nl, circuit.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Release()
	tr, err := reach.NewTR(c, reach.DefaultTROptions())
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Release()
	var st reach.ImageStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := tr.Image(c.Init, nil, &st)
		c.M.Deref(img)
	}
}

func BenchmarkReorderWindow3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, f, done := buildMultiplierBit(b, 7, 7)
		b.StartTimer()
		m.Reorder(bdd.ReorderWindow3, bdd.SiftConfig{})
		b.StopTimer()
		_ = f
		done()
		b.StartTimer()
	}
}

func BenchmarkMcMillanDecomposition(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 7)
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := decomp.McMillan(m, f)
		for _, fi := range fs {
			m.Deref(fi)
		}
	}
}

func BenchmarkEquivalenceMultipliers(b *testing.B) {
	mk := func(name string, n int) *circuit.Netlist {
		bl := circuit.NewBuilder(name)
		x := bl.InputBus("a", n)
		y := bl.InputBus("b", n)
		bl.OutputBus("p", bl.Multiplier(x, y))
		return bl.MustBuild()
	}
	a := mk("m1", 6)
	c := mk("m1", 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := circuit.Equivalent(a, c, nil)
		if err != nil || !ok {
			b.Fatal("equivalence failed")
		}
	}
}

func BenchmarkCTLCheck(b *testing.B) {
	nl := model.Am2910(model.Am2910Small())
	c, err := circuit.Compile(nl, circuit.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Release()
	tr, err := reach.NewTR(c, reach.DefaultTROptions())
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Release()
	ck := mc.NewChecker(c, tr, nil)
	ck.DefineLatchAtoms()
	defer ck.Release()
	f, err := mc.Parse("AG EF (upc0 & !upc1)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat, err := ck.Sat(f)
		if err != nil {
			b.Fatal(err)
		}
		c.M.Deref(sat)
	}
}

func BenchmarkBiasedUnderApprox(b *testing.B) {
	m, f, done := buildMultiplierBit(b, 8, 8)
	defer done()
	bias := m.And(m.IthVar(0), m.IthVar(9))
	defer m.Deref(bias)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := approx.BiasedUnderApprox(m, f, bias, 0, 1.0, 4.0)
		m.Deref(r)
	}
}

func BenchmarkBFSCounter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bld := circuit.NewBuilder("counter")
		en := bld.Input("en")
		q := bld.LatchBus("q", 10, 0)
		inc, _ := bld.Incrementer(q)
		bld.SetNextBus(q, bld.MuxBus(en, inc, q))
		bld.Output("tc", bld.EqConst(q, 1023))
		nl := bld.MustBuild()
		c, err := circuit.Compile(nl, circuit.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := reach.NewTR(c, reach.DefaultTROptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := tr.BFS(c.Init, reach.Options{})
		b.StopTimer()
		c.M.Deref(res.Reached)
		tr.Release()
		c.Release()
		b.StartTimer()
	}
}
