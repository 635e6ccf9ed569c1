package bdd

import "time"

// Observability hooks. The package deliberately does not import the obs
// layer: instead a Manager is built with an Observer (Config.Observer; an
// obs sink, or a test double) and reports to it the rare structural
// events — garbage collections, reorderings, limit aborts, invariant
// failures, and on a parallel manager stop-the-world epochs and stalls —
// that metrics and the flight recorder want attributed. The
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
	// panic is raised immediately after this hook returns. It is called
	// once per aborted operation, also when several parallel workers trip
	// the budget together. Deadline aborts are routine under budgeted
	// traversal and are not reported.
	Abort(reason string)
	// DebugFailure reports a DebugCheck invariant violation.
	DebugFailure(err error)
	// STW reports one completed write-lease / stop-the-world epoch on a
	// parallel manager: the cause (gc, alloc, cache_resize, reorder,
	// save_load, debug_check, exclusive), the manager's worker count, the
	// drain/acquisition wait before exclusion held, and the exclusion
	// duration itself. Called after the world is released.
	STW(cause string, workers int, wait, pause time.Duration)
	// Stall reports a stall-watchdog firing: the engine looked stuck for
	// stuck (a quiescence barrier draining past its deadline, the write
	// lease wedged, or a deque system with in-flight ops and no progress).
	// report is a multi-line parallel-state dump (lease holder by cause,
	// per-worker in-flight ops and deque depths, contention top-K) meant
	// for the flight recorder. Called from the watchdog goroutine; the
	// engine may still be live, so implementations must not call back into
	// the manager.
	Stall(report string, stuck time.Duration)
}

// Observer returns the observer the manager was built with (nil = none).
func (m *Manager) Observer() Observer { return m.observer }
