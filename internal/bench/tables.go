package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/decomp"
	"bddkit/internal/model"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

// ---------------------------------------------------------------------------
// Tables 2 and 3: approximation method comparison.
// ---------------------------------------------------------------------------

// ApproxRow is one row of Table 2 or 3: geometric means over the corpus
// plus density wins/ties.
type ApproxRow struct {
	Method   string
	Nodes    float64
	Minterms float64
	Density  float64
	Wins     int
	Ties     int
}

// ApproxResult bundles the rows with the corpus size.
type ApproxResult struct {
	Rows  []ApproxRow
	Cases int
}

// Table2 reproduces the paper's Table 2 protocol on the given corpus:
// thresholds for UA and RUA are 0 with quality 1 (their most favorable
// settings), and |RUA(f)| becomes the threshold for HB and SP so no method
// is disadvantaged. Rows report the geometric means of nodes, minterms and
// density plus density wins/ties, in the paper's order (F, HB, SP, UA,
// RUA).
func Table2(fns []Fn) ApproxResult {
	methods := []string{"F", "HB", "SP", "UA", "RUA"}
	return approxTable(fns, methods, func(m *bdd.Manager, f bdd.Ref) []bdd.Ref {
		rua := approx.RemapUnderApprox(m, f, 0, 1.0)
		th := m.DagSize(rua)
		hb := approx.HeavyBranch(m, f, th)
		sp := approx.ShortPaths(m, f, th)
		ua := approx.UnderApprox(m, f, 0, 0.5)
		return []bdd.Ref{m.Ref(f), hb, sp, ua, rua}
	})
}

// Table3 reproduces Table 3: the compound methods C1 (RUA followed by safe
// minimization) and C2 (SP, then RUA, then minimization), scored against
// each other as in the paper ("C1 never loses to RUA, and C2 never loses
// to SP", so simple and compound methods are kept separate).
func Table3(fns []Fn) ApproxResult {
	methods := []string{"C1", "C2"}
	return approxTable(fns, methods, func(m *bdd.Manager, f bdd.Ref) []bdd.Ref {
		rua := approx.RemapUnderApprox(m, f, 0, 1.0)
		th := m.DagSize(rua)
		m.Deref(rua)
		c1 := approx.Compound1(m, f, 0, 1.0)
		c2 := approx.Compound2(m, f, th, 1.0)
		return []bdd.Ref{c1, c2}
	})
}

func approxTable(fns []Fn, methods []string, run func(*bdd.Manager, bdd.Ref) []bdd.Ref) ApproxResult {
	nm := len(methods)
	nodes := make([][]float64, nm)
	minterms := make([][]float64, nm)
	density := make([][]float64, nm)
	for i := range nodes {
		nodes[i] = make([]float64, len(fns))
		minterms[i] = make([]float64, len(fns))
		density[i] = make([]float64, len(fns))
	}
	for c, fn := range fns {
		m := fn.M
		results := run(m, fn.F)
		nVars := m.NumVars()
		for i, g := range results {
			nodes[i][c] = float64(m.DagSize(g))
			minterms[i][c] = math.Ldexp(count.Fraction(m, g), nVars)
			density[i][c] = minterms[i][c] / nodes[i][c]
			m.Deref(g)
		}
	}
	wins, ties := WinsTies(density)
	res := ApproxResult{Cases: len(fns)}
	for i, name := range methods {
		res.Rows = append(res.Rows, ApproxRow{
			Method:   name,
			Nodes:    GeoMean(nodes[i]),
			Minterms: GeoMean(minterms[i]),
			Density:  GeoMean(density[i]),
			Wins:     wins[i],
			Ties:     ties[i],
		})
	}
	return res
}

// ---------------------------------------------------------------------------
// Table 4: decomposition method comparison.
// ---------------------------------------------------------------------------

// DecompRow is one row of Table 4.
type DecompRow struct {
	Method string
	Shared float64
	G      float64
	H      float64
	Wins   int
	Ties   int
}

// DecompResult bundles the rows with the population statistics the paper
// prints in the sub-headers (|f| mean, number of BDDs).
type DecompResult struct {
	Rows     []DecompRow
	Cases    int
	MeanSize float64
}

// Table4 reproduces Table 4 on the corpus functions of at least minNodes
// nodes: two-way conjunctive decomposition by Cofactor, Disjoint, and
// Band, reporting mean shared size and factor sizes; wins/ties rank the
// size of the larger factor (smaller is better).
func Table4(fns []Fn, minNodes int) DecompResult {
	sub := Filter(fns, minNodes)
	methods := []string{"Cofactor", "Disjoint", "Band"}
	shared := make([][]float64, 3)
	gs := make([][]float64, 3)
	hs := make([][]float64, 3)
	larger := make([][]float64, 3)
	for i := range shared {
		shared[i] = make([]float64, len(sub))
		gs[i] = make([]float64, len(sub))
		hs[i] = make([]float64, len(sub))
		larger[i] = make([]float64, len(sub))
	}
	var sizes []float64
	for c, fn := range sub {
		m := fn.M
		sizes = append(sizes, float64(fn.Nodes))
		pairs := []decomp.Pair{
			decomp.Cofactor(m, fn.F),
			decomp.Decompose(m, fn.F, decomp.DisjointPoints(m, fn.F, decomp.DefaultDisjointConfig())),
			decomp.Decompose(m, fn.F, decomp.BandPoints(m, fn.F, decomp.DefaultBandConfig())),
		}
		for i, p := range pairs {
			shared[i][c] = float64(p.SharedSize(m))
			gs[i][c] = float64(m.DagSize(p.G))
			hs[i][c] = float64(m.DagSize(p.H))
			larger[i][c] = gs[i][c]
			if hs[i][c] > larger[i][c] {
				larger[i][c] = hs[i][c]
			}
			p.Deref(m)
		}
	}
	wins, ties := WinsTies(LowerIsBetter(larger))
	res := DecompResult{Cases: len(sub), MeanSize: GeoMean(sizes)}
	for i, name := range methods {
		res.Rows = append(res.Rows, DecompRow{
			Method: name,
			Shared: GeoMean(shared[i]),
			G:      GeoMean(gs[i]),
			H:      GeoMean(hs[i]),
			Wins:   wins[i],
			Ties:   ties[i],
		})
	}
	return res
}

// ---------------------------------------------------------------------------
// Table 1: reachability analysis with approximate traversal.
// ---------------------------------------------------------------------------

// MethodResult is one traversal's outcome within a Table 1 row, including
// the per-phase breakdown behind the timing column (serialized by
// WriteTable1JSON).
type MethodResult struct {
	Time      time.Duration `json:"time_ns"`
	Done      bool          `json:"done"`
	States    float64       `json:"states"`         // states found (exact when Done, explored otherwise)
	Nodes     int           `json:"nodes"`          // |reached| at the end
	PeakNodes int           `json:"peak_nodes"`     // manager live-node high-water mark
	CacheHit  float64       `json:"cache_hit_rate"` // computed-table hit rate over the run

	// Phase breakdown: where Time went and how much work each phase did.
	Iterations  int           `json:"iterations"`
	Closures    int           `json:"closures,omitempty"` // exact closure checks (HD only)
	Images      int           `json:"images"`
	AndExists   int           `json:"and_exists"`
	PImgCuts    int           `json:"pimg_cuts,omitempty"`
	PeakProduct int           `json:"peak_product"`
	ImageTime   time.Duration `json:"image_time_ns"`
	SubsetTime  time.Duration `json:"subset_time_ns,omitempty"`
	ClosureTime time.Duration `json:"closure_time_ns,omitempty"`
	// ReorderTime is the sifting inside the run; it overlaps the phases
	// above, since a sift runs within an image or a subsetting step.
	ReorderTime time.Duration `json:"reorder_time_ns,omitempty"`
}

// Table1Row mirrors one row of the paper's Table 1, extended with the
// exploration statistics that tell the story for budget-limited runs.
type Table1Row struct {
	Ckt    string  `json:"ckt"`
	FF     int     `json:"ff"`
	States float64 `json:"states"` // exact reachable states (from the best completed run)

	BFS MethodResult `json:"bfs"`

	RUATh   int          `json:"rua_threshold"`
	RUAQual float64      `json:"rua_quality"`
	RUAPImg string       `json:"rua_pimg"`
	RUA     MethodResult `json:"rua"`

	SPTh   int          `json:"sp_threshold"`
	SPPImg string       `json:"sp_pimg"`
	SP     MethodResult `json:"sp"`
}

// Table1Circuit configures one row's circuit and method parameters (the
// paper tuned these by trial and error per circuit; see EXPERIMENTS.md for
// how ours were chosen).
type Table1Circuit struct {
	Name    string
	Netlist *circuit.Netlist

	RUAThreshold int
	RUAQuality   float64
	RUAPImg      *reach.PImg

	SPThreshold int
	SPPImg      *reach.PImg

	// Budget caps each traversal (the stand-in for the paper's ">2
	// weeks" entry: a run that exhausts its budget reports not
	// completed).
	Budget time.Duration
}

// Table1Config lists the circuits to run.
type Table1Config struct {
	Circuits []Table1Circuit

	// Observe, when non-nil, is the observability session that watches
	// every manager the table builds: each is built reporting to the
	// session (so compilation's GCs and reorders count too), and
	// ObserveManager points the -obs endpoint's gauges at
	// the manager actually doing the work (each method runs on a fresh
	// manager).
	Observe *obs.Session
}

// Table1Small is a fast configuration for tests and testing.B benchmarks.
func Table1Small() Table1Config {
	return Table1Config{Circuits: []Table1Circuit{
		{
			Name:         "s3330",
			Netlist:      model.S3330(model.S3330Config{Word: 4, FifoDepth: 2, CrcBits: 4}),
			RUAThreshold: 0, RUAQuality: 1.0,
			SPThreshold: 200,
			Budget:      30 * time.Second,
		},
		{
			Name:         "s1269",
			Netlist:      model.S1269(model.S1269Config{Width: 4}),
			RUAThreshold: 0, RUAQuality: 1.0,
			SPThreshold: 200,
			Budget:      30 * time.Second,
		},
		{
			Name:         "am2910",
			Netlist:      model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2}),
			RUAThreshold: 0, RUAQuality: 1.0,
			SPThreshold: 100,
			Budget:      30 * time.Second,
		},
		{
			// Latch-free: exercises the zero-iteration combinational row.
			Name:         "equiv-adder8f",
			Netlist:      gauntlet.MiterNetlist(8, true),
			RUAThreshold: 0, RUAQuality: 1.0,
			SPThreshold: 20,
			Budget:      30 * time.Second,
		},
	}}
}

// Table1Paper is the laptop-scale analogue of the paper's Table 1 runs:
// the four circuit models at the scales and parameter settings recorded in
// EXPERIMENTS.md (found, as in the paper, by trial and error). budget caps
// each traversal; a run that exhausts it reports "not completed", the
// stand-in for the paper's ">2 weeks" BFS entry on am2910.
func Table1Paper(budget time.Duration) Table1Config {
	pimgRUA := &reach.PImg{Limit: 20000, Threshold: 10000, Subset: reach.RUASubsetter(1.0)}
	pimgSP := &reach.PImg{Limit: 20000, Threshold: 10000, Subset: reach.SPSubsetter()}
	return Table1Config{Circuits: []Table1Circuit{
		{
			Name:         "s3330",
			Netlist:      model.S3330(model.S3330Full()),
			RUAThreshold: 0, RUAQuality: 1.0, RUAPImg: pimgRUA,
			SPThreshold: 2000, SPPImg: pimgSP,
			Budget: budget,
		},
		{
			Name:         "s1269",
			Netlist:      model.S1269(model.S1269Full()),
			RUAThreshold: 0, RUAQuality: 0.5, RUAPImg: pimgRUA,
			SPThreshold: 2000, SPPImg: pimgSP,
			Budget: budget,
		},
		{
			Name:         "s5378opt",
			Netlist:      model.S5378(model.S5378Config{Units: 6, UnitWidth: 5}),
			RUAThreshold: 0, RUAQuality: 1.0, RUAPImg: pimgRUA,
			SPThreshold: 2000, SPPImg: pimgSP,
			Budget: budget,
		},
		{
			Name: "am2910",
			Netlist: model.Am2910(model.Am2910Config{
				Width: 8, StackDepth: 3, WithROM: true, RomSeed: 7, DitherBits: 3,
			}),
			RUAThreshold: 0, RUAQuality: 1.0, RUAPImg: pimgRUA,
			SPThreshold: 2000, SPPImg: pimgSP,
			Budget: budget,
		},
		{
			Name:         "equiv-adder16f",
			Netlist:      gauntlet.MiterNetlist(16, true),
			RUAThreshold: 0, RUAQuality: 1.0,
			SPThreshold: 200,
			Budget:      budget,
		},
	}}
}

// RunTable1 executes BFS, HD+RUA, and HD+SP per circuit, each on a fresh
// manager (so caches and reordering cannot leak across methods, as in the
// paper's separate runs).
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, ckt := range cfg.Circuits {
		if len(ckt.Netlist.Latches) == 0 {
			// Latch-free circuit: there is no transition relation to
			// traverse (NewTR would refuse it), but the row must still be
			// emitted — with zero iterations — rather than silently
			// dropped from -json output.
			row, err := runTable1Combinational(cfg, ckt)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			continue
		}
		row := Table1Row{Ckt: ckt.Name, FF: len(ckt.Netlist.Latches)}
		row.RUATh = ckt.RUAThreshold
		row.RUAQual = ckt.RUAQuality
		row.RUAPImg = pimgLabel(ckt.RUAPImg)
		row.SPTh = ckt.SPThreshold
		row.SPPImg = pimgLabel(ckt.SPPImg)

		run := func(f func(tr *reach.TR, init bdd.Ref) reach.Result) (reach.Result, error) {
			c, err := circuit.Compile(ckt.Netlist, circuit.CompileOptions{
				AutoReorder: true,
				BDDConfig:   &bdd.Config{Observer: cfg.Observe.Observer()},
			})
			if err != nil {
				return reach.Result{}, err
			}
			tr, err := reach.NewTR(c, reach.DefaultTROptions())
			if err != nil {
				return reach.Result{}, err
			}
			cfg.Observe.ObserveManager(c.M)
			res := f(tr, c.Init)
			c.M.Deref(res.Reached)
			tr.Release()
			c.Release()
			return res, nil
		}

		toMethod := func(r reach.Result) MethodResult {
			mr := MethodResult{
				Time:        r.Elapsed,
				Done:        r.Completed,
				States:      r.States,
				Nodes:       r.Nodes,
				PeakNodes:   r.Stats.PeakLiveNodes,
				Iterations:  r.Iterations,
				Closures:    r.Closure,
				Images:      r.Stats.Images,
				AndExists:   r.Stats.AndExists,
				PImgCuts:    r.Stats.PImgCuts,
				PeakProduct: r.Stats.PeakProduct,
				ImageTime:   r.Stats.ImageTime,
				SubsetTime:  r.Stats.SubsetTime,
				ClosureTime: r.Stats.ClosureTime,
				ReorderTime: r.Stats.ReorderTime,
			}
			if r.Stats.CacheLookups > 0 {
				mr.CacheHit = float64(r.Stats.CacheHits) / float64(r.Stats.CacheLookups)
			}
			return mr
		}

		bfs, err := run(func(tr *reach.TR, init bdd.Ref) reach.Result {
			return tr.BFS(init, reach.Options{Budget: ckt.Budget})
		})
		if err != nil {
			return nil, err
		}
		row.BFS = toMethod(bfs)
		if bfs.Completed {
			row.States = bfs.States
		}

		rua, err := run(func(tr *reach.TR, init bdd.Ref) reach.Result {
			return tr.HighDensity(init, reach.Options{
				Subset:    reach.RUASubsetter(ckt.RUAQuality),
				Threshold: ckt.RUAThreshold,
				PImg:      ckt.RUAPImg,
				Budget:    ckt.Budget,
			})
		})
		if err != nil {
			return nil, err
		}
		row.RUA = toMethod(rua)
		if rua.Completed && row.States == 0 {
			row.States = rua.States
		}

		sp, err := run(func(tr *reach.TR, init bdd.Ref) reach.Result {
			return tr.HighDensity(init, reach.Options{
				Subset:    reach.SPSubsetter(),
				Threshold: ckt.SPThreshold,
				PImg:      ckt.SPPImg,
				Budget:    ckt.Budget,
			})
		})
		if err != nil {
			return nil, err
		}
		row.SP = toMethod(sp)
		if sp.Completed && row.States == 0 {
			row.States = sp.States
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runTable1Combinational fills the row for a latch-free circuit. The
// methods degenerate to one image-less step each: the "BFS" column is the
// exact minterm count of the disjunction of the outputs (for a miter
// netlist, the number of distinguishing inputs), and the RUA/SP columns
// apply the corresponding subset operator to that function at the
// circuit's thresholds — filing quality-ledger records exactly as a
// traversal's subset phase would — and report the subset's count. Every
// method completes with Iterations 0.
func runTable1Combinational(cfg Table1Config, ckt Table1Circuit) (Table1Row, error) {
	row := Table1Row{
		Ckt: ckt.Name, FF: 0,
		RUATh: ckt.RUAThreshold, RUAQual: ckt.RUAQuality, RUAPImg: pimgLabel(ckt.RUAPImg),
		SPTh: ckt.SPThreshold, SPPImg: pimgLabel(ckt.SPPImg),
	}
	run := func(subset func(m *bdd.Manager, f bdd.Ref) bdd.Ref) (MethodResult, error) {
		start := time.Now()
		c, err := circuit.Compile(ckt.Netlist, circuit.CompileOptions{
			SkipNextVars: true,
			AutoReorder:  true,
			BDDConfig:    &bdd.Config{Observer: cfg.Observe.Observer()},
		})
		if err != nil {
			return MethodResult{}, err
		}
		defer c.Release()
		cfg.Observe.ObserveManager(c.M)
		f := c.M.Ref(bdd.Zero)
		for _, o := range c.Outputs {
			g := c.M.Or(f, o)
			c.M.Deref(f)
			f = g
		}
		sub := f
		if subset != nil {
			sub = subset(c.M, f)
		}
		cnt, err := count.Minterms(c.M, sub, c.M.NumVars())
		if err != nil {
			return MethodResult{}, err
		}
		states, _ := new(big.Float).SetInt(cnt).Float64()
		mr := MethodResult{
			Time:       time.Since(start),
			Done:       true,
			States:     states,
			Nodes:      c.M.DagSize(sub),
			PeakNodes:  c.M.Stats().PeakLive,
			Iterations: 0,
		}
		if sub != f {
			c.M.Deref(sub)
		}
		c.M.Deref(f)
		return mr, nil
	}
	var err error
	if row.BFS, err = run(nil); err != nil {
		return row, err
	}
	row.States = row.BFS.States
	if row.RUA, err = run(func(m *bdd.Manager, f bdd.Ref) bdd.Ref {
		return approx.RemapUnderApprox(m, f, ckt.RUAThreshold, ckt.RUAQuality)
	}); err != nil {
		return row, err
	}
	if row.SP, err = run(func(m *bdd.Manager, f bdd.Ref) bdd.Ref {
		return approx.ShortPaths(m, f, ckt.SPThreshold)
	}); err != nil {
		return row, err
	}
	return row, nil
}

func pimgLabel(p *reach.PImg) string {
	if p == nil {
		return "NA"
	}
	return fmt.Sprintf("%d/%d", p.Limit, p.Threshold)
}

// WriteTable1JSON writes Table 1 rows — including each method's per-phase
// breakdown (image/subset/closure and reorder time, relational-product
// counts, peak intermediate product) — as indented JSON.
func WriteTable1JSON(w io.Writer, rows []Table1Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Table string      `json:"table"`
		Rows  []Table1Row `json:"rows"`
	}{Table: "table1", Rows: rows})
}

// ---------------------------------------------------------------------------
// Printing, in the shape of the paper's tables.
// ---------------------------------------------------------------------------

// PrintApprox writes Table 2/3 rows.
func PrintApprox(w io.Writer, title string, res ApproxResult) {
	fmt.Fprintf(w, "%s (%d BDDs)\n", title, res.Cases)
	fmt.Fprintf(w, "%-8s %12s %14s %14s %6s %6s\n", "Method", "nodes", "minterms", "density", "wins", "ties")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-8s %12.1f %14.4g %14.4g %6d %6d\n",
			r.Method, r.Nodes, r.Minterms, r.Density, r.Wins, r.Ties)
	}
}

// PrintDecomp writes Table 4 rows.
func PrintDecomp(w io.Writer, minNodes int, res DecompResult) {
	fmt.Fprintf(w, "Min. Nodes = %d, |f| = %.1f, %d BDDs\n", minNodes, res.MeanSize, res.Cases)
	fmt.Fprintf(w, "%-10s %12s %12s %12s %6s %6s\n", "Method", "Shared", "G", "H", "wins", "ties")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %12.1f %6d %6d\n",
			r.Method, r.Shared, r.G, r.H, r.Wins, r.Ties)
	}
}

// PrintTable1 writes Table 1 rows in the paper's layout, followed by an
// exploration footnote for any run that exhausted its budget (the paper's
// am2910 BFS entry is ">2 weeks"; ours report how far each method got).
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-8s %4s %12s | %10s | %6s %5s %13s %10s | %6s %13s %10s\n",
		"Ckt", "FF", "States", "BFS time", "Th", "Qual", "PImg", "RUA time", "Th", "PImg", "SP time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %12s | %10s | %6d %5.1f %13s %10s | %6d %13s %10s\n",
			r.Ckt, r.FF, fmtStates(r), fmtDur(r.BFS.Time, r.BFS.Done),
			r.RUATh, r.RUAQual, r.RUAPImg, fmtDur(r.RUA.Time, r.RUA.Done),
			r.SPTh, r.SPPImg, fmtDur(r.SP.Time, r.SP.Done))
	}
	for _, r := range rows {
		if r.BFS.Done && r.RUA.Done && r.SP.Done {
			continue
		}
		fmt.Fprintf(w, "  %s (budget exhausted): ", r.Ckt)
		for _, m := range []struct {
			name string
			mr   MethodResult
		}{{"BFS", r.BFS}, {"HD+RUA", r.RUA}, {"HD+SP", r.SP}} {
			status := "done"
			if !m.mr.Done {
				status = "partial"
			}
			fmt.Fprintf(w, "%s %s %.3g states, peak %d nodes, cache %.0f%%; ",
				m.name, status, m.mr.States, m.mr.PeakNodes, 100*m.mr.CacheHit)
		}
		fmt.Fprintln(w)
	}
}

// fmtStates renders a row's state count: exact when some method completed,
// and otherwise "> N", N being the most states any method explored, as the
// time columns print "> t" for a run cut at its budget.
func fmtStates(r Table1Row) string {
	if r.BFS.Done || r.RUA.Done || r.SP.Done {
		return fmt.Sprintf("%.4g", r.States)
	}
	return fmt.Sprintf("> %.4g", max(r.BFS.States, r.RUA.States, r.SP.States))
}

func fmtDur(d time.Duration, completed bool) string {
	s := d.Round(time.Millisecond).String()
	if !completed {
		return "> " + s
	}
	return s
}
