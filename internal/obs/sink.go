package obs

import (
	"io"
	"os"
	"sync"
	"time"

	"bddkit/internal/bdd"
)

// Sink is the telemetry a BDD manager reports to, attached when the
// manager is built (bdd.Config.Observer) and fixed for its lifetime. As
// the manager's bdd.Observer it counts GC, reorder, abort and invariant
// events in its registry, writes them to its tracer, and dumps the
// tracer's flight recorder on node-budget aborts and invariant failures. It also carries the quality ledger that the
// approximation, decomposition, traversal and counting operators file
// their loss in. A cmd session owns one sink for every manager it
// watches; each bddserve tenant owns one for its own managers, so no
// record crosses from one to the other.
type Sink struct {
	reg    *Registry
	tracer *Tracer
	ledger *Ledger

	mu    sync.Mutex
	dumpW io.Writer // flight-recorder dumps; os.Stderr unless redirected

	gcPause    *Histogram
	gcCount    *Counter
	gcNodes    *Counter
	reorderDur *Histogram
	reorders   *Counter
	aborts     *Counter
	debugFails *Counter
}

// NewSink registers the bdd_* event metrics and a quality ledger on reg.
// Events and ledger records go to tracer, and dumps come from its flight
// recorder; a nil tracer drops both.
func NewSink(reg *Registry, tracer *Tracer) *Sink {
	k := &Sink{
		reg:        reg,
		tracer:     tracer,
		ledger:     NewLedger(reg, tracer),
		dumpW:      os.Stderr,
		gcPause:    reg.Histogram("bdd_gc_pause_ns"),
		gcCount:    reg.Counter("bdd_gc_total"),
		gcNodes:    reg.Counter("bdd_gc_reclaimed_nodes"),
		reorderDur: reg.Histogram("bdd_reorder_ns"),
		reorders:   reg.Counter("bdd_reorder_total"),
		aborts:     reg.Counter("bdd_budget_aborts_total"),
		debugFails: reg.Counter("bdd_debug_failures_total"),
	}
	for name, text := range map[string]string{
		"bdd_gc_pause_ns":          "garbage-collection pause durations",
		"bdd_gc_total":             "garbage collections observed",
		"bdd_gc_reclaimed_nodes":   "nodes reclaimed by garbage collection",
		"bdd_reorder_ns":           "variable-reordering pass durations",
		"bdd_reorder_total":        "variable-reordering passes observed",
		"bdd_budget_aborts_total":  "node-budget aborts observed",
		"bdd_debug_failures_total": "DebugCheck invariant failures observed",
	} {
		reg.SetHelp(name, text)
	}
	return k
}

// Of returns the sink m reports to, or nil when m was built without one.
// Instrumented library code reaches its tracer and ledger this way, from
// the manager it already holds; the accessors of a nil sink return a nil
// tracer and ledger, which are disabled, so un-observed managers pay one
// type assertion per instrumented operation.
func Of(m *bdd.Manager) *Sink {
	k, _ := m.Observer().(*Sink)
	return k
}

// Tracer returns the sink's tracer (nil-safe).
func (k *Sink) Tracer() *Tracer {
	if k == nil {
		return nil
	}
	return k.tracer
}

// Ledger returns the sink's quality ledger (nil-safe).
func (k *Sink) Ledger() *Ledger {
	if k == nil {
		return nil
	}
	return k.ledger
}

// SetDumpWriter redirects flight-recorder dumps (budget aborts, invariant
// failures, stalls, panics) away from os.Stderr — tests assert on dump
// contents this way. A nil w restores stderr.
func (k *Sink) SetDumpWriter(w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	k.mu.Lock()
	k.dumpW = w
	k.mu.Unlock()
}

// dump writes the flight recorder, if the tracer has one, under reason.
func (k *Sink) dump(reason string) {
	fr := k.tracer.Flight()
	if fr == nil {
		return
	}
	k.mu.Lock()
	w := k.dumpW
	k.mu.Unlock()
	fr.Dump(w, reason)
}

// bdd.Observer implementation -------------------------------------------

// GC records a garbage collection in the registry, the trace, and the
// flight recorder.
func (k *Sink) GC(reclaimed, live int, pause time.Duration) {
	k.gcPause.Observe(pause.Nanoseconds())
	k.gcCount.Inc()
	k.gcNodes.Add(int64(reclaimed))
	k.tracer.Event("bdd.gc",
		Int("reclaimed", reclaimed), Int("live", live), Dur("pause_ns", pause))
}

// Reorder records a reordering pass.
func (k *Sink) Reorder(before, after int, dur time.Duration) {
	k.reorderDur.Observe(dur.Nanoseconds())
	k.reorders.Inc()
	k.tracer.Event("bdd.reorder",
		Int("nodes_before", before), Int("nodes_after", after), Dur("dur_ns", dur))
}

// Abort dumps the flight recorder: node-budget exhaustion is exactly the
// moment the recent trace history explains what grew. The emitted
// bdd.abort event carries the open-span stack — open spans have not
// written their own records yet, so without it the dump could not say
// *where* the run died.
func (k *Sink) Abort(reason string) {
	k.aborts.Inc()
	k.tracer.Event("bdd.abort",
		Str("reason", reason), Str("stack", k.tracer.StackString()))
	k.dump("node budget exhausted: " + reason)
}

// DebugFailure dumps the flight recorder on an invariant violation.
func (k *Sink) DebugFailure(err error) {
	k.debugFails.Inc()
	k.tracer.Event("bdd.debug_failure", Str("error", err.Error()))
	k.dump("DebugCheck failure: " + err.Error())
}

var _ bdd.Observer = (*Sink)(nil)
