package bdd

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Operation limits. Symbolic operations can blow up unpredictably (a
// single relational product may dwarf the rest of a traversal), so bounded
// work runs inside Run, the one entry that scopes limits to a callback: a
// context (deadline and cancellation) and a live-node ceiling. Node
// allocation checks the ceiling on every allocation. It never reads the
// clock: context.AfterFunc raises a flag when the context ends, and
// allocation polls that flag every deadlineCheckInterval allocations.
// Reordering polls the same flag before it starts, between swaps, and
// between the subtables its sweeps visit (see Reorder, gc and siftVar).
// When a limit trips, allocation panics with OpAborted and Run converts
// the panic into its returned error.
//
// Runs nest. An inner Run only tightens: the smaller node ceiling applies,
// the outer context still ends the inner work, and the outer limits are
// back in force when the inner Run returns.
//
// After an aborted operation the manager remains structurally valid —
// every node is intact and all previously returned Refs keep working — but
// references owned by the interrupted recursion are stranded (a bounded
// memory leak until the manager is discarded). Budgeted drivers such as
// the reachability engine treat an abort as "this traversal is over",
// which is exactly the paper's usage.

// OpAborted is the panic value raised when a limit trips, and the error
// Run returns for it.
type OpAborted struct {
	// Reason describes which limit tripped.
	Reason string
	// Err is the context error that ended the operation
	// (context.Canceled or context.DeadlineExceeded); nil for a
	// node-ceiling trip.
	Err error
}

func (e OpAborted) Error() string { return "bdd: operation aborted: " + e.Reason }

// Unwrap exposes the context error, so errors.Is(err, context.Canceled)
// tells a cancelled operation from a blown budget.
func (e OpAborted) Unwrap() error { return e.Err }

// deadlineCheckInterval is how many allocations pass between two polls of
// the context flag: abort latency stays at microseconds, not relational
// products.
const deadlineCheckInterval = 4096

// runScope is one active Run: its context, the effective node ceiling,
// the enclosing Run, and the flag context.AfterFunc raises when the
// context ends.
type runScope struct {
	ctx   context.Context
	limit int
	outer *runScope
	ended atomic.Bool
}

// stopped reports whether the context of this Run or of an enclosing one
// has ended.
func (s *runScope) stopped() bool {
	for ; s != nil; s = s.outer {
		if s.ended.Load() {
			return true
		}
	}
	return false
}

// done returns the abort for the first ended context from this scope
// outwards.
func (s *runScope) done() (OpAborted, bool) {
	for ; s != nil; s = s.outer {
		if err := s.ctx.Err(); err != nil {
			return OpAborted{Reason: err.Error(), Err: err}, true
		}
	}
	return OpAborted{}, false
}

// Run executes fn with ctx and a live-node ceiling (0 = none) in force
// and converts an OpAborted panic raised inside fn into the returned
// error; other panics propagate. If ctx is already done, fn is not
// called. Inside an enclosing Run the limits only tighten, and the
// enclosing limits are restored on return. Runs on one manager nest; they
// never run side by side.
func (m *Manager) Run(ctx context.Context, nodeLimit int, fn func() error) (err error) {
	s := &runScope{ctx: ctx, limit: nodeLimit, outer: m.scope}
	if o := s.outer; o != nil && o.limit > 0 && (s.limit <= 0 || o.limit < s.limit) {
		s.limit = o.limit
	}
	if ab, ok := s.done(); ok {
		return ab
	}
	defer context.AfterFunc(ctx, func() { s.ended.Store(true) })()
	m.scope, m.nodeLimit, m.allocTick = s, s.limit, 0
	defer func() {
		m.scope, m.nodeLimit = s.outer, 0
		if s.outer != nil {
			m.nodeLimit = s.outer.limit
		}
		if r := recover(); r != nil {
			ab, ok := r.(OpAborted)
			if !ok {
				panic(r)
			}
			err = ab
		}
	}()
	return fn()
}

// NodeLimit returns the live-node ceiling in force (0 = none). The read is
// advisory: limits change only between operations, so instrumentation
// reading it mid-run (budget-pressure gauges) sees the value that governs
// the current operation.
func (m *Manager) NodeLimit() int { return m.nodeLimit }

// stopRequested reports whether the context of an active Run has ended.
// Reordering polls it before it starts, between swaps and between sweep
// subtables.
func (m *Manager) stopRequested() bool { return m.scope.stopped() }

// checkLimits is called from node allocation.
func (m *Manager) checkLimits() {
	if m.noGC {
		// Reordering is in flight: the unique table is mid-surgery and
		// must never be abandoned by a panic, so limits are suspended
		// until the swap sequence completes (the sift itself stops early
		// on the flag).
		return
	}
	if m.nodeLimit > 0 && m.liveCount > m.nodeLimit {
		ab := OpAborted{Reason: fmt.Sprintf("live nodes %d exceed limit %d", m.liveCount, m.nodeLimit)}
		if m.observer != nil {
			// Node-budget exhaustion is a diagnosis-worthy event (unlike
			// routine deadline aborts): give the flight recorder a chance
			// to dump before the stack unwinds.
			m.observer.Abort(ab.Reason)
		}
		panic(ab)
	}
	if s := m.scope; s != nil {
		m.allocTick++
		if m.allocTick >= deadlineCheckInterval {
			m.allocTick = 0
			if s.stopped() {
				ab, _ := s.done()
				panic(ab)
			}
		}
	}
}
