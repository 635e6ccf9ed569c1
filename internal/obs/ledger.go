package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Operation ledger: the quality-of-result half of the observability layer.
// Every top-level approximation, decomposition, and reachability iteration
// emits one OpRecord describing what the operation traded — DAG size in
// and out, minterm mass retained, density before and after, how close the
// run is to its node budget, and the attributed time/GC/STW cost. Records
// flow three ways:
//
//   - into the trace as schema-v3 "quality.op" events (and thereby into
//     the flight recorder, so a budget-abort dump carries the last
//     quality decision made before the run died),
//   - into per-operator aggregates (count, aborts, nodes shed, mass
//     retained and duration histograms) served by /quality and rendered
//     by cmd/bddtop, and
//   - into the metrics registry (quality_* counters/gauges/histograms),
//     so the Prometheus endpoint exposes the same numbers to scrapers.
//
// A ledger belongs to a Sink, and the operators reach it through the
// manager they run on (Of(m).Ledger()), so each manager's records land
// in its own sink. A manager without a sink has a nil ledger: the
// instrumentation sites check for nil before any attribute computation
// (DagSize and count.Fraction sweeps), so un-observed operators pay
// nothing beyond that check.

// OpRecord is one ledger entry. Masses are minterm fractions of the
// operation's ambient space (the full variable space for combinational
// operators, the state space for reach iterations); densities are mass
// per node — proportional to the paper's minterms-per-node measure for a
// fixed variable count, and comparable before/after within one record.
type OpRecord struct {
	OpID uint64 `json:"op_id"`
	TS   string `json:"ts,omitempty"` // RFC3339Nano, stamped by Record if empty
	Kind string `json:"kind"`         // "approx", "decomp", "reach"
	Op   string `json:"op"`           // "rua", "hb", "sp", "ua", "biased", "c1", "c2", "conj", "disj", "mcmillan", "bfs", "hd", ...
	Iter int    `json:"iter,omitempty"`

	SizeIn  int `json:"size_in"`
	SizeOut int `json:"size_out"`

	MassIn       float64 `json:"mass_in"`
	MassOut      float64 `json:"mass_out"`
	MassRetained float64 `json:"mass_retained"` // MassOut/MassIn; 1 when MassIn == 0
	DensityIn    float64 `json:"density_in"`
	DensityOut   float64 `json:"density_out"`

	Threshold int `json:"threshold,omitempty"` // node budget the operator aimed at (0 = none)

	// Budget pressure at record time: the manager's armed live-node
	// ceiling, the live count against it, and the headroom fraction
	// (1 = unconstrained or far from the limit, 0 = at the limit).
	BudgetLimit    int     `json:"budget_limit,omitempty"`
	BudgetLive     int     `json:"budget_live,omitempty"`
	BudgetHeadroom float64 `json:"budget_headroom"`

	DurNS int64 `json:"dur_ns"`
	GCNS  int64 `json:"gc_ns,omitempty"`  // GC time attributed to this operation
	STWNS int64 `json:"stw_ns,omitempty"` // stop-the-world time attributed to this operation

	Abort string `json:"abort,omitempty"` // abort/recovery cause ("" = clean)
}

// Key returns the aggregation key, "kind.op".
func (r *OpRecord) Key() string { return r.Kind + "." + r.Op }

// OpAgg is the per-operator aggregate served by /quality.
type OpAgg struct {
	Key      string            `json:"key"` // "approx.rua", "reach.hd", ...
	Count    int64             `json:"count"`
	Aborts   int64             `json:"aborts,omitempty"`
	NodesIn  int64             `json:"nodes_in"`  // summed input DAG sizes
	NodesOut int64             `json:"nodes_out"` // summed result DAG sizes
	MassSum  float64           `json:"mass_retained_sum"`
	MassMin  float64           `json:"mass_retained_min"`
	Retained HistogramSnapshot `json:"retained_permille"` // mass retained, in permille
	Dur      HistogramSnapshot `json:"dur_ns"`
}

// MassMean returns the mean mass-retained ratio.
func (a *OpAgg) MassMean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.MassSum / float64(a.Count)
}

// NodesShed returns the total nodes given up (negative when results grew).
func (a *OpAgg) NodesShed() int64 { return a.NodesIn - a.NodesOut }

type ledgerAgg struct {
	count, aborts     int64
	nodesIn, nodesOut int64
	massSum, massMin  float64
	retained          *Histogram // permille, registry-owned
	dur               *Histogram // ns, registry-owned
}

// Ledger accumulates OpRecords into a registry and a tracer. A nil
// *Ledger drops every record.
type Ledger struct {
	reg    *Registry
	tracer *Tracer // receives quality.op events; nil drops them
	ops    *Counter
	aborts *Counter

	mu      sync.Mutex
	nextID  uint64
	aggs    map[string]*ledgerAgg
	last    OpRecord
	hasLast bool
}

// NewLedger returns a ledger filing into reg and emitting to tracer. The
// counter and gauge names are registered immediately so a scrape before
// the first operation still sees the series.
func NewLedger(reg *Registry, tracer *Tracer) *Ledger {
	l := &Ledger{
		reg:    reg,
		tracer: tracer,
		ops:    reg.Counter("quality_ops_total"),
		aborts: reg.Counter("quality_op_aborts_total"),
		aggs:   make(map[string]*ledgerAgg),
	}
	reg.SetHelp("quality_ops_total", "operations recorded by the quality ledger")
	reg.SetHelp("quality_op_aborts_total", "ledger operations that ended in an abort")
	reg.GaugeFunc("quality_last_mass_retained", func() float64 {
		rec, ok := l.Last()
		if !ok {
			return 1
		}
		return rec.MassRetained
	})
	reg.SetHelp("quality_last_mass_retained", "mass-retained ratio of the most recent ledger operation")
	return l
}

// Record files one operation. The ledger assigns OpID, stamps TS and
// derives MassRetained and BudgetHeadroom when the caller left them zero
// (a caller that files a record after the fact sets TS itself), updates
// the per-operator aggregates and registry metrics, and emits the
// quality.op trace event. No-op on a nil ledger.
func (l *Ledger) Record(rec OpRecord) {
	if l == nil {
		return
	}
	if rec.MassRetained == 0 {
		if rec.MassIn > 0 {
			rec.MassRetained = rec.MassOut / rec.MassIn
		} else {
			rec.MassRetained = 1
		}
	}
	if rec.BudgetHeadroom == 0 {
		rec.BudgetHeadroom = headroom(rec.BudgetLimit, rec.BudgetLive)
	}
	if rec.TS == "" {
		rec.TS = time.Now().Format(time.RFC3339Nano)
	}

	l.mu.Lock()
	l.nextID++
	rec.OpID = l.nextID
	key := rec.Key()
	agg, ok := l.aggs[key]
	if !ok {
		agg = &ledgerAgg{
			massMin:  rec.MassRetained,
			retained: l.reg.Histogram("quality_" + rec.Kind + "_" + rec.Op + "_mass_permille"),
			dur:      l.reg.Histogram("quality_" + rec.Kind + "_" + rec.Op + "_dur_ns"),
		}
		l.aggs[key] = agg
	}
	agg.count++
	agg.nodesIn += int64(rec.SizeIn)
	agg.nodesOut += int64(rec.SizeOut)
	agg.massSum += rec.MassRetained
	if rec.MassRetained < agg.massMin {
		agg.massMin = rec.MassRetained
	}
	agg.retained.Observe(int64(rec.MassRetained * 1000))
	agg.dur.Observe(rec.DurNS)
	if rec.Abort != "" {
		agg.aborts++
		l.aborts.Inc()
	}
	l.ops.Inc()
	l.last = rec
	l.hasLast = true
	l.mu.Unlock()

	l.tracer.Event("quality.op",
		Str("op_kind", rec.Kind), Str("op", rec.Op),
		I64("op_id", int64(rec.OpID)),
		Int("iter", rec.Iter),
		Int("size_in", rec.SizeIn), Int("size_out", rec.SizeOut),
		F64("mass_in", rec.MassIn), F64("mass_out", rec.MassOut),
		F64("mass_retained", rec.MassRetained),
		F64("density_in", rec.DensityIn), F64("density_out", rec.DensityOut),
		Int("threshold", rec.Threshold),
		Int("budget_limit", rec.BudgetLimit), Int("budget_live", rec.BudgetLive),
		F64("budget_headroom", rec.BudgetHeadroom),
		I64("dur_ns", rec.DurNS), I64("gc_ns", rec.GCNS), I64("stw_ns", rec.STWNS),
		Str("abort", rec.Abort))
}

// headroom maps (limit, live) to the remaining budget fraction.
func headroom(limit, live int) float64 {
	if limit <= 0 {
		return 1
	}
	h := 1 - float64(live)/float64(limit)
	if h < 0 {
		return 0
	}
	return h
}

// Last returns the most recent record, if any.
func (l *Ledger) Last() (OpRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last, l.hasLast
}

// LedgerSnapshot is the /quality payload: totals, the most recent record,
// and the per-operator aggregates sorted by key.
type LedgerSnapshot struct {
	Ops    int64     `json:"ops"`
	Aborts int64     `json:"aborts"`
	Last   *OpRecord `json:"last,omitempty"`
	PerOp  []OpAgg   `json:"per_op"`
}

// Snapshot summarizes the ledger.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var snap LedgerSnapshot
	if l.hasLast {
		rec := l.last
		snap.Last = &rec
	}
	for key, agg := range l.aggs {
		snap.Ops += agg.count
		snap.Aborts += agg.aborts
		snap.PerOp = append(snap.PerOp, OpAgg{
			Key:      key,
			Count:    agg.count,
			Aborts:   agg.aborts,
			NodesIn:  agg.nodesIn,
			NodesOut: agg.nodesOut,
			MassSum:  agg.massSum,
			MassMin:  agg.massMin,
			Retained: agg.retained.Snapshot(),
			Dur:      agg.dur.Snapshot(),
		})
	}
	sort.Slice(snap.PerOp, func(i, j int) bool { return snap.PerOp[i].Key < snap.PerOp[j].Key })
	return snap
}

// WriteReport renders the per-operator quality table as text — the
// end-of-run summary the cmds print with -metrics, and the body of the
// bddtop quality panel.
func (s LedgerSnapshot) WriteReport(w io.Writer) {
	if s.Ops == 0 {
		fmt.Fprintln(w, "quality ledger: no operations recorded")
		return
	}
	fmt.Fprintf(w, "quality ledger: %d operations, %d aborted\n", s.Ops, s.Aborts)
	fmt.Fprintf(w, "%-16s %6s %6s %9s %9s %9s %12s %12s\n",
		"op", "count", "abort", "mass-mean", "mass-min", "mass-p50", "nodes-shed", "time")
	for _, a := range s.PerOp {
		fmt.Fprintf(w, "%-16s %6d %6d %9.4f %9.4f %9.3f %12d %12v\n",
			a.Key, a.Count, a.Aborts, a.MassMean(), a.MassMin,
			float64(a.Retained.P50)/1000, a.NodesShed(),
			time.Duration(a.Dur.Sum).Round(time.Microsecond))
	}
}
