package bdd

import "time"

// Observability hooks. The package deliberately does not import the obs
// layer: instead a Manager is built with an Observer (Config.Observer; an
// obs sink, or a test double) and reports to it the rare structural
// events — garbage collections, reorderings, limit aborts and invariant
// failures — that metrics and the flight recorder want attributed. The
// observer is fixed for the manager's lifetime, so managers in one
// process (a server's tenants, a benchmark's fresh per-run managers)
// report to their own sinks. Hot paths never call the observer; the
// per-operation counters stay in Stats and are published by snapshot-time
// gauges, so an absent observer costs a single nil check of a manager
// field at each rare event site.

// Observer receives structural lifecycle events from the managers built
// with it. Implementations must be cheap and must not call back into the
// reporting Manager (the table may be mid-surgery).
type Observer interface {
	// GC reports a completed garbage collection: nodes reclaimed, nodes
	// still live, and the collection pause.
	GC(reclaimed, live int, pause time.Duration)
	// Reorder reports a completed reordering pass with the live-node
	// counts before and after and the pass duration.
	Reorder(before, after int, dur time.Duration)
	// Abort reports that a live-node budget was exhausted; the OpAborted
	// panic is raised immediately after this hook returns. Deadline aborts
	// are routine under budgeted traversal and are not reported.
	Abort(reason string)
	// DebugFailure reports a DebugCheck invariant violation.
	DebugFailure(err error)
}

// Observer returns the observer the manager was built with (nil = none).
func (m *Manager) Observer() Observer { return m.observer }
