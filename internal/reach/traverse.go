package reach

import (
	"context"
	"errors"
	"math/big"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/obs"
	"bddkit/internal/prof"
)

// Options selects and parameterizes a traversal.
type Options struct {
	// Subset extracts the dense frontier subset in high-density mode
	// (nil selects BFS).
	Subset Subsetter
	// Threshold is the frontier-subset size target (the "Th" column of
	// Table 1; 0 lets a safe subsetter shrink freely).
	Threshold int
	// PImg enables partial-image subsetting (the "PImg" column; nil =
	// exact images, the paper's "NA").
	PImg *PImg
	// MaxIterations aborts runaway traversals (0 = no bound).
	MaxIterations int
	// Budget aborts the traversal after the given wall-clock time
	// (0 = unbounded). An aborted traversal reports Completed = false
	// and returns the states found so far. The traversal also ends early,
	// the same way, when a limit of a bdd.Manager.Run enclosing it trips:
	// a node ceiling, a deadline or a cancellation.
	Budget time.Duration
	// Profile emits a reach.profile trace event per iteration with a
	// structural summary (widths, widest levels) of the fresh frontier and
	// the reached set. Costs one O(nodes) profile sweep per set per
	// iteration; no effect when tracing is off.
	Profile bool
}

// Result reports a completed traversal.
type Result struct {
	Reached bdd.Ref // exact reached set (caller owns the reference)
	States  float64 // number of reachable states
	// StatesExact is the exact reached-state count (States is a float64
	// and degrades past 2^53 states); nil only if the reached set escaped
	// the present-state variables, which a healthy traversal never does.
	StatesExact *big.Int
	Nodes       int  // |Reached|
	Iterations  int  // outer image computations
	Closure     int  // exact closure checks run (HD only)
	Completed   bool // false when MaxIterations, Budget or an enclosing Run's limit ended the run
	// Abort carries the limit-trip reason when the traversal was cut short
	// by a node-ceiling, deadline or cancellation abort ("" = no abort).
	Abort   string
	Elapsed time.Duration
	Stats   ImageStats
}

// BFS computes the exact reachable states from init by breadth-first
// fixpoint iteration.
func (tr *TR) BFS(init bdd.Ref, opts Options) Result {
	m := tr.M
	t := obs.Of(m).Tracer()
	return tr.traverse("bfs", init, opts, func(tv *traversal) bool {
		tv.frontier = m.Ref(init)
		for {
			tv.iters++
			tv.begin(t, tv.frontier, 0)
			img := tr.Image(tv.frontier, nil, &tv.st)
			tv.dropFrontier()
			fresh := m.Diff(img, tv.reached)
			m.Deref(img)
			if fresh == bdd.Zero {
				tv.fixpoint()
				return true
			}
			tv.frontier = fresh
			nr := m.Or(tv.reached, fresh)
			m.Deref(tv.reached)
			tv.reached = nr
			tv.end(fresh, fresh)
			if opts.Profile {
				tr.profileEvent(t, tv.iters, fresh, tv.reached)
			}
			if tv.over(opts) {
				return false
			}
		}
	})
}

// beginIteration opens the per-iteration span (nil when tracing is off);
// the size/density attribute computation is gated on the tracer so the
// disabled path costs nothing.
func (tr *TR) beginIteration(t *obs.Tracer, mode string, iter int, frontier bdd.Ref) *obs.Span {
	if !t.Enabled() {
		return nil
	}
	fn := tr.M.DagSize(frontier)
	return t.Begin("reach.iteration",
		obs.Str("mode", mode),
		obs.Int("iter", iter),
		obs.Int("frontier_nodes", fn),
		obs.F64("frontier_density", tr.density(frontier, fn)))
}

// endIteration closes a per-iteration span with the sizes and densities of
// the new states and the accumulated reached set.
func (tr *TR) endIteration(sp *obs.Span, fresh, reached bdd.Ref) {
	if sp == nil {
		return
	}
	m := tr.M
	fn, rn := m.DagSize(fresh), m.DagSize(reached)
	sp.End(
		obs.Int("fresh_nodes", fn),
		obs.F64("fresh_density", tr.density(fresh, fn)),
		obs.Int("reached_nodes", rn),
		obs.F64("reached_density", tr.density(reached, rn)))
}

// profileEvent emits the per-iteration structural summary behind
// Options.Profile. The full per-level tables stay out of the trace to keep
// it compact; the event carries totals, the widest levels and max widths —
// enough for traceview (and a human) to see where the frontier bulges.
func (tr *TR) profileEvent(t *obs.Tracer, iter int, fresh, reached bdd.Ref) {
	if !t.Enabled() {
		return
	}
	m := tr.M
	fp := prof.Compute(m, []bdd.Ref{fresh}, prof.Options{})
	rp := prof.Compute(m, []bdd.Ref{reached}, prof.Options{})
	t.Event("reach.profile",
		obs.Int("iter", iter),
		obs.Int("frontier_nodes", fp.Nodes),
		obs.Int("frontier_max_width", fp.MaxWidth),
		obs.Str("frontier_top_widths", fp.TopWidths(3)),
		obs.Int("reached_nodes", rp.Nodes),
		obs.Int("reached_max_width", rp.MaxWidth),
		obs.Str("reached_top_widths", rp.TopWidths(3)))
}

// density is the paper's quality measure: states per node.
func (tr *TR) density(f bdd.Ref, nodes int) float64 {
	if nodes == 0 {
		return 0
	}
	return tr.StateCount(f) / float64(nodes)
}

// HighDensity computes the exact reachable states using the high-density
// traversal of Ravi–Somenzi (ICCAD'95) as configured for the paper's
// Table 1: each iteration feeds image computation a dense subset of the
// new states (extracted by opts.Subset), and intermediate image products
// may themselves be subsetted (opts.PImg). When the subset frontier stops
// producing new states, an exact image of the whole reached set checks
// closure, so the final result equals BFS's.
func (tr *TR) HighDensity(init bdd.Ref, opts Options) Result {
	m := tr.M
	if opts.Subset == nil {
		opts.Subset = RUASubsetter(1.0)
	}
	t := obs.Of(m).Tracer()
	return tr.traverse("hd", init, opts, func(tv *traversal) bool {
		tv.frontier = m.Ref(init) // dense subset of the unexplored states
		for {
			tv.iters++
			tv.begin(t, tv.frontier, opts.Threshold)
			img := tr.Image(tv.frontier, opts.PImg, &tv.st)
			tv.dropFrontier()
			fresh := m.Diff(img, tv.reached)
			m.Deref(img)
			if fresh == bdd.Zero {
				// The dense frontier is exhausted; verify global closure
				// with an exact image of the full reached set.
				tv.closures++
				cstart := time.Now()
				var csp *obs.Span
				if t.Enabled() {
					csp = t.Begin("reach.closure",
						obs.Int("closure", tv.closures),
						obs.Int("reached_nodes", m.DagSize(tv.reached)))
				}
				img := tr.Image(tv.reached, nil, &tv.st)
				fresh = m.Diff(img, tv.reached)
				m.Deref(img)
				tv.st.ClosureTime += time.Since(cstart)
				closed := fresh == bdd.Zero
				csp.End(obs.Bool("closed", closed))
				if closed {
					tv.fixpoint()
					return true
				}
			}
			nr := m.Or(tv.reached, fresh)
			m.Deref(tv.reached)
			tv.reached = nr
			sstart := time.Now()
			tv.frontier = opts.Subset(m, fresh, opts.Threshold)
			tv.st.SubsetTime += time.Since(sstart)
			if t.Enabled() {
				t.Event("reach.subset",
					obs.Int("frontier_before", m.DagSize(fresh)),
					obs.Int("threshold", opts.Threshold),
					obs.Int("frontier_after", m.DagSize(tv.frontier)))
			}
			tv.end(fresh, tv.frontier)
			if opts.Profile {
				tr.profileEvent(t, tv.iters, fresh, tv.reached)
			}
			m.Deref(fresh)
			if tv.over(opts) {
				return false
			}
		}
	})
}

// traversal is the state a traversal loop shares with traverse, which
// reports it however the loop ends: the reached set so far, the counters,
// the frontier the next iteration would expand, the iteration whose span
// and ledger record are still open, and the ledger records of the closed
// iterations.
type traversal struct {
	tr       *TR
	mode     string
	ctx      context.Context // ends when the budget is spent
	reached  bdd.Ref
	frontier bdd.Ref // owned by the traversal; traverse releases it
	iters    int
	closures int
	st       ImageStats
	span     *obs.Span      // open iteration span (nil when tracing is off)
	ledger   *iterLedger    // open iteration record (nil without a ledger)
	held     []obs.OpRecord // closed iteration records, filed by traverse
}

// traverse runs loop, the body of one traversal, under opts.Budget. One
// bdd.Manager.Run bounds every operation of the loop, inside whatever Run
// the caller holds, and an abort anywhere in it ends the traversal with
// the states found so far: a sound under-approximation of the reachable
// set, reported with Completed false and the abort's reason. loop reports
// whether it reached the fixpoint. The computed-table and reordering
// counters in the Result cover the traversal alone, not the compile and
// transition-relation build that ran on the manager before it; the sift
// before a relation's first image (TR.siftOnce) is part of the traversal.
//
// The iterations' ledger records are filed when the traversal ends, and
// not at all when an enclosing Run's context was cancelled: nobody is
// waiting for that answer, so it made no quality trade.
func (tr *TR) traverse(mode string, init bdd.Ref, opts Options, loop func(tv *traversal) bool) Result {
	m := tr.M
	start := time.Now()
	s0 := m.Stats()
	ctx := context.Background()
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	tv := &traversal{tr: tr, mode: mode, ctx: ctx, reached: m.Ref(init), frontier: bdd.Zero}
	completed := false
	err := m.Run(ctx, 0, func() error {
		completed = loop(tv)
		return nil
	})
	var ab bdd.OpAborted
	if errors.As(err, &ab) {
		tv.abort(ab)
	}
	m.Deref(tv.frontier)
	if !errors.Is(err, context.Canceled) {
		ledger := obs.Of(m).Ledger()
		for _, rec := range tv.held {
			ledger.Record(rec)
		}
	}
	s := m.Stats()
	tv.st.CacheLookups = s.CacheLookups - s0.CacheLookups
	tv.st.CacheHits = s.CacheHits - s0.CacheHits
	tv.st.Reorderings = s.Reorderings - s0.Reorderings
	tv.st.ReorderTime = s.ReorderTime - s0.ReorderTime
	return Result{
		Reached:     tv.reached,
		States:      tr.StateCount(tv.reached),
		StatesExact: tr.stateCountExactOrNil(tv.reached),
		Nodes:       m.DagSize(tv.reached),
		Iterations:  tv.iters,
		Closure:     tv.closures,
		Completed:   completed,
		Abort:       ab.Reason,
		Elapsed:     time.Since(start),
		Stats:       tv.st,
	}
}

// dropFrontier releases the frontier once its image is computed.
func (tv *traversal) dropFrontier() {
	tv.tr.M.Deref(tv.frontier)
	tv.frontier = bdd.Zero
}

// begin opens iteration tv.iters on frontier: its span and its ledger
// record.
func (tv *traversal) begin(t *obs.Tracer, frontier bdd.Ref, threshold int) {
	tv.span = tv.tr.beginIteration(t, tv.mode, tv.iters, frontier)
	tv.ledger = tv.tr.beginIterLedger(tv.mode, tv.iters, threshold, frontier)
}

// hold closes the open iteration's ledger record and keeps it for
// traverse to file.
func (tv *traversal) hold(fresh, frontierOut bdd.Ref, abort string) {
	if tv.ledger != nil {
		tv.held = append(tv.held, tv.ledger.record(fresh, frontierOut, abort))
		tv.ledger = nil
	}
}

// end closes the open iteration: fresh is what its image discovered and
// frontierOut what goes on to the next iteration.
func (tv *traversal) end(fresh, frontierOut bdd.Ref) {
	tv.hold(fresh, frontierOut, "")
	tv.tr.endIteration(tv.span, fresh, tv.reached)
	tv.span = nil
}

// fixpoint closes the open iteration as the one that found no new states.
func (tv *traversal) fixpoint() {
	tv.hold(bdd.Zero, bdd.Zero, "")
	tv.span.End(obs.Int("fresh_nodes", 0), obs.Bool("fixpoint", true))
	tv.span = nil
}

// abort closes the open iteration, if any, as the one a limit ended.
func (tv *traversal) abort(ab bdd.OpAborted) {
	tv.hold(bdd.Zero, bdd.Zero, ab.Reason)
	tv.span.End(obs.Bool("aborted", true))
	tv.span = nil
}

// over reports whether the traversal hit its iteration bound or spent its
// budget.
func (tv *traversal) over(opts Options) bool {
	return opts.MaxIterations > 0 && tv.iters >= opts.MaxIterations || tv.ctx.Err() != nil
}
