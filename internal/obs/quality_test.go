package obs

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bddkit/internal/bdd"
)

// freshLedger returns a ledger filing into a fresh registry and emitting
// to a tracer writing into buf.
func freshLedger(buf *bytes.Buffer) (*Ledger, *Registry) {
	reg := NewRegistry()
	return NewLedger(reg, NewTracer(buf)), reg
}

func TestLedgerRecordDerivesAndAggregates(t *testing.T) {
	var buf bytes.Buffer
	l, reg := freshLedger(&buf)

	// MassRetained and BudgetHeadroom left zero: Record must derive them.
	l.Record(OpRecord{
		Kind: "approx", Op: "rua",
		SizeIn: 100, SizeOut: 40,
		MassIn: 0.5, MassOut: 0.25,
		BudgetLimit: 1000, BudgetLive: 250,
		DurNS: 1500,
	})
	rec, ok := l.Last()
	if !ok {
		t.Fatal("Last() empty after Record")
	}
	if rec.OpID != 1 {
		t.Fatalf("op id = %d, want 1", rec.OpID)
	}
	if rec.MassRetained != 0.5 {
		t.Fatalf("derived mass_retained = %v, want 0.5", rec.MassRetained)
	}
	if rec.BudgetHeadroom != 0.75 {
		t.Fatalf("derived budget_headroom = %v, want 0.75", rec.BudgetHeadroom)
	}
	if rec.TS == "" {
		t.Fatal("Record did not stamp TS")
	}

	// MassIn == 0 derives retained = 1 (nothing was at stake); an explicit
	// abort reason counts toward the abort totals.
	l.Record(OpRecord{Kind: "approx", Op: "rua", SizeIn: 10, SizeOut: 10, DurNS: 10})
	l.Record(OpRecord{Kind: "reach", Op: "hd", Iter: 3, MassIn: 0.5, MassRetained: 0, Abort: "deadline"})
	if rec, _ = l.Last(); rec.MassRetained != 0 {
		// The abort record carried MassIn > 0 and MassOut 0.
		t.Fatalf("abort record mass_retained = %v, want 0", rec.MassRetained)
	}

	snap := l.Snapshot()
	if snap.Ops != 3 || snap.Aborts != 1 {
		t.Fatalf("snapshot ops/aborts = %d/%d, want 3/1", snap.Ops, snap.Aborts)
	}
	if len(snap.PerOp) != 2 || snap.PerOp[0].Key != "approx.rua" || snap.PerOp[1].Key != "reach.hd" {
		t.Fatalf("per-op keys wrong: %+v", snap.PerOp)
	}
	rua := snap.PerOp[0]
	if rua.Count != 2 || rua.NodesShed() != 60 {
		t.Fatalf("approx.rua agg = count %d, shed %d; want 2, 60", rua.Count, rua.NodesShed())
	}
	if rua.MassMin != 0.5 || rua.MassMean() != 0.75 {
		t.Fatalf("approx.rua mass min/mean = %v/%v, want 0.5/0.75", rua.MassMin, rua.MassMean())
	}

	// Registry wiring: totals plus per-key histograms.
	if v := reg.Counter("quality_ops_total").Value(); v != 3 {
		t.Fatalf("quality_ops_total = %d, want 3", v)
	}
	if v := reg.Counter("quality_op_aborts_total").Value(); v != 1 {
		t.Fatalf("quality_op_aborts_total = %d, want 1", v)
	}
	if h := reg.Histogram("quality_approx_rua_mass_permille").Snapshot(); h.Count != 2 {
		t.Fatalf("mass histogram count = %d, want 2", h.Count)
	}

	// Trace emission: every record is a validating v3 quality.op event.
	sum, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ledger trace does not validate: %v\n%s", err, buf.String())
	}
	if sum.ByName["quality.op"] != 3 {
		t.Fatalf("quality.op events = %d, want 3", sum.ByName["quality.op"])
	}

	// The end-of-run -metrics report renders every operator.
	var report strings.Builder
	snap.WriteReport(&report)
	if !strings.Contains(report.String(), "approx.rua") || !strings.Contains(report.String(), "reach.hd") {
		t.Fatalf("report missing per-op rows:\n%s", report.String())
	}
}

func TestLedgerLastMassGauge(t *testing.T) {
	var buf bytes.Buffer
	l, reg := freshLedger(&buf)
	if v := reg.Snapshot()["quality_last_mass_retained"].(float64); v != 1 {
		t.Fatalf("gauge before any record = %v, want 1", v)
	}
	l.Record(OpRecord{Kind: "approx", Op: "hb", MassIn: 1, MassOut: 0.125})
	if v := reg.Snapshot()["quality_last_mass_retained"].(float64); v != 0.125 {
		t.Fatalf("gauge after record = %v, want 0.125", v)
	}
	_ = l
}

// TestHistogramQuantileClampsToMax: with few samples the power-of-two
// bucket upper bound used to overshoot the real maximum (one observation
// of 1000 reported p99 = 1023). Quantile bounds must clamp to the observed
// max.
func TestHistogramQuantileClampsToMax(t *testing.T) {
	var h Histogram
	h.Observe(1000)
	s := h.Snapshot()
	if s.P50 != 1000 || s.P99 != 1000 {
		t.Fatalf("single-sample quantiles p50=%d p99=%d, want both 1000 (clamped to max)", s.P50, s.P99)
	}
	h.Observe(5)
	s = h.Snapshot()
	if s.P99 != 1000 {
		t.Fatalf("p99 = %d, want 1000", s.P99)
	}
	if s.P50 > 1000 {
		t.Fatalf("p50 = %d exceeds max", s.P50)
	}
}

// TestHistogramSingleObservationQuantiles pins the general single-sample
// contract — P50 == P95 == the observed value — including the overflow
// bucket, whose nominal bound (2^47) is *below* a large observation, so
// the clamp-to-max must raise it rather than lower it.
func TestHistogramSingleObservationQuantiles(t *testing.T) {
	for _, v := range []int64{1, 5, 100, 1 << 20, 1 << 46, 1 << 55} {
		var h Histogram
		h.Observe(v)
		s := h.Snapshot()
		if s.P50 != v || s.P95 != v {
			t.Fatalf("Observe(%d): p50=%d p95=%d, want both %d", v, s.P50, s.P95, v)
		}
		if s.Max != v {
			t.Fatalf("Observe(%d): max=%d, want %d", v, s.Max, v)
		}
	}
}

func TestPrometheusRoundTripCleanLint(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total")
	c.Add(7)
	reg.SetHelp("test_ops_total", "operations observed")
	reg.Gauge("test_live").Set(42)
	reg.GaugeFunc("test_rate", func() float64 { return 0.25 })
	h := reg.Histogram("test_dur_ns")
	for _, v := range []int64{1, 3, 900, 1_000_000} {
		h.Observe(v)
	}

	var page bytes.Buffer
	reg.WritePrometheus(&page)
	text := page.String()
	for _, want := range []string{
		"# HELP test_ops_total operations observed",
		"# TYPE test_ops_total counter",
		"test_ops_total 7",
		"# TYPE test_live gauge",
		"test_live 42",
		"test_rate 0.25",
		"# TYPE test_dur_ns histogram",
		`test_dur_ns_bucket{le="+Inf"} 4`,
		"test_dur_ns_sum 1000904",
		"test_dur_ns_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	scrape, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, text)
	}
	if problems := LintPrometheus(scrape); len(problems) > 0 {
		t.Fatalf("lint of our own exposition: %v", problems)
	}
	if v, ok := scrape.Value("test_ops_total"); !ok || v != 7 {
		t.Fatalf("Value(test_ops_total) = %v, %v", v, ok)
	}
	if v, ok := scrape.Value("test_dur_ns_count"); !ok || v != 4 {
		t.Fatalf("Value(test_dur_ns_count) = %v, %v", v, ok)
	}
	if fam := scrape.Family("test_dur_ns"); fam == nil || fam.Type != "histogram" {
		t.Fatalf("histogram family not grouped: %+v", fam)
	}
}

func TestLintPrometheusCatchesProblems(t *testing.T) {
	cases := []struct {
		name, page, want string
	}{
		{"duplicate series",
			"# HELP a x\n# TYPE a counter\na 1\na 2\n",
			"duplicate sample"},
		{"missing TYPE",
			"# HELP a x\na 1\n",
			"missing # TYPE"},
		{"missing HELP",
			"# TYPE a counter\na 1\n",
			"missing # HELP"},
		{"unknown type",
			"# HELP a x\n# TYPE a bogus\na 1\n",
			"unknown type"},
		{"negative counter",
			"# HELP a x\n# TYPE a counter\na -3\n",
			"invalid value"},
		{"non-cumulative histogram",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
			"below previous"},
		{"missing +Inf",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n",
			`missing le="+Inf"`},
		{"count mismatch",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n",
			"!= _count"},
		{"declared but empty",
			"# HELP a x\n# TYPE a counter\n",
			"no samples"},
	}
	for _, tc := range cases {
		scrape, err := ParsePrometheus(strings.NewReader(tc.page))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		problems := LintPrometheus(scrape)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: lint missed %q, got %v", tc.name, tc.want, problems)
		}
	}
}

func TestCheckCounterMonotonic(t *testing.T) {
	parse := func(s string) *PromScrape {
		scrape, err := ParsePrometheus(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return scrape
	}
	prev := parse("# HELP a x\n# TYPE a counter\na 5\n# HELP g x\n# TYPE g gauge\ng 9\n")
	cur := parse("# HELP a x\n# TYPE a counter\na 3\n# HELP g x\n# TYPE g gauge\ng 2\n# HELP b x\n# TYPE b counter\nb 1\n")
	problems := CheckCounterMonotonic(prev, cur)
	if len(problems) != 1 || !strings.Contains(problems[0], "counter a") {
		t.Fatalf("want exactly the counter regression, got %v", problems)
	}
	// Forward direction is clean; gauges may move freely; new counters are
	// not an error.
	if problems := CheckCounterMonotonic(cur, parse("# HELP a x\n# TYPE a counter\na 3\n")); len(problems) != 0 {
		t.Fatalf("vanished series flagged: %v", problems)
	}
}

// TestManagerGaugesFollowObservedManager: the series bddtop plots read
// the most recently observed manager. Inside a Run with a ceiling of 100
// on m1 they report m1; after a second ObserveManager, still inside that
// Run, they report m2, which has no ceiling. quality_last_mass_retained
// reads the session ledger's latest record.
func TestManagerGaugesFollowObservedManager(t *testing.T) {
	s, err := Config{Trace: filepath.Join(t.TempDir(), "trace.jsonl")}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	build := func(arena int) *bdd.Manager {
		return bdd.NewWithConfig(8, bdd.Config{InitialNodes: arena, Observer: s.Observer()})
	}
	m1, m2 := build(1<<12), build(1<<10)
	f := m1.And(m1.IthVar(0), m1.Or(m1.IthVar(1), m1.IthVar(2)))
	defer m1.Deref(f)
	Of(m1).Ledger().Record(OpRecord{Kind: "approx", Op: "sp", MassIn: 1, MassOut: 0.5})

	gauges := func() *PromScrape {
		var buf bytes.Buffer
		s.Registry.WritePrometheus(&buf)
		p, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(who string, p *PromScrape, m *bdd.Manager, limit int) {
		t.Helper()
		want := map[string]float64{
			"bdd_live_nodes":             float64(m.NodeCount()),
			"bdd_node_limit":             float64(limit),
			"bdd_budget_headroom":        headroom(limit, m.NodeCount()),
			"bdd_arena_capacity":         float64(m.ArenaStats().Capacity),
			"quality_last_mass_retained": 0.5,
		}
		for name, w := range want {
			if v, ok := p.Value(name); !ok || v != w {
				t.Errorf("%s: %s = %v (served %v), want %v", who, name, v, ok, w)
			}
		}
	}
	if m1.NodeCount() == m2.NodeCount() || m1.ArenaStats().Capacity == m2.ArenaStats().Capacity {
		t.Fatal("m1 and m2 must differ in live nodes and arena capacity")
	}

	s.ObserveManager(m1)
	var before, after *PromScrape
	if err := m1.Run(context.Background(), 100, func() error {
		before = gauges()
		s.ObserveManager(m2)
		after = gauges()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("first manager", before, m1, 100)
	check("second manager", after, m2, 0)
}

// TestWriteDiffOneSidedPhases: a span name present in only one trace must
// diff against zero and be labeled added/removed, not dropped or fatal.
func TestWriteDiffOneSidedPhases(t *testing.T) {
	mk := func(names ...string) *TraceAnalysis {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		for _, n := range names {
			sp := tr.Begin(n)
			time.Sleep(100 * time.Microsecond)
			sp.End()
		}
		a, err := AnalyzeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := mk("reach.image", "reach.gone")
	b := mk("reach.image", "reach.new")
	deltas := DiffRollups(a, b)
	byName := make(map[string]RollupDelta)
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["reach.new"]; d.CountA != 0 || d.CountB != 1 || d.Delta <= 0 {
		t.Fatalf("added phase delta wrong: %+v", d)
	}
	if d := byName["reach.gone"]; d.CountB != 0 || d.Delta >= 0 {
		t.Fatalf("removed phase delta wrong: %+v", d)
	}
	var out strings.Builder
	WriteDiff(&out, a, b, deltas)
	text := out.String()
	if !strings.Contains(text, "added") || !strings.Contains(text, "removed") {
		t.Fatalf("diff report missing added/removed labels:\n%s", text)
	}
}
