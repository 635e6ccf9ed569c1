package reach

import (
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
	// and returns the states found so far.
	Budget time.Duration
	// NodeLimit arms a live-node ceiling on the manager for the duration
	// of the traversal (0 = none). A traversal that trips it reports
	// Completed = false with Abort describing the trip; the partial
	// reached set is still a sound under-approximation of the reachable
	// states, which is exactly what a budget-degraded server answer needs.
	NodeLimit int
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
	Completed   bool // false when MaxIterations, Budget, or NodeLimit aborted the run
	// Abort carries the limit-trip reason when the traversal was cut short
	// by a node-budget or deadline abort ("" = no abort).
	Abort   string
	Elapsed time.Duration
	Stats   ImageStats
}

// BFS computes the exact reachable states from init by breadth-first
// fixpoint iteration.
func (tr *TR) BFS(init bdd.Ref, opts Options) (res Result) {
	start := time.Now()
	m := tr.M
	var st ImageStats
	t := obs.Of(m).Tracer()
	if opts.Budget > 0 {
		st.Deadline = start.Add(opts.Budget)
		m.SetDeadline(st.Deadline)
		defer m.SetDeadline(time.Time{})
	}
	if opts.NodeLimit > 0 {
		prev := m.NodeLimit()
		m.SetNodeLimit(opts.NodeLimit)
		defer m.SetNodeLimit(prev)
	}
	reached := m.Ref(init)
	iters := 0
	completed := false
	// The budget can trip inside any allocating operation of the loop,
	// not only inside Image; treat an abort as "budget exhausted" and
	// report the states found so far.
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(bdd.OpAborted)
			if !ok {
				panic(r)
			}
			abortRecord(tr, "bfs", iters, ab.Reason)
			captureCacheStats(m, &st)
			res = Result{
				Reached:     reached,
				States:      tr.StateCount(reached),
				StatesExact: tr.stateCountExactOrNil(reached),
				Nodes:       m.DagSize(reached),
				Iterations:  iters,
				Abort:       ab.Reason,
				Elapsed:     time.Since(start),
				Stats:       st,
			}
		}
	}()
	frontier := m.Ref(init)
	for {
		iters++
		isp := tr.beginIteration(t, "bfs", iters, frontier)
		ilg := tr.beginIterLedger("bfs", iters, 0, frontier)
		img := tr.Image(frontier, nil, &st)
		m.Deref(frontier)
		if st.Aborted {
			m.Deref(img)
			ilg.record(bdd.Zero, bdd.Zero, "image-deadline")
			isp.End(obs.Bool("aborted", true))
			break
		}
		fresh := m.Diff(img, reached)
		m.Deref(img)
		if fresh == bdd.Zero {
			m.Deref(fresh)
			completed = true
			ilg.record(bdd.Zero, bdd.Zero, "")
			isp.End(obs.Int("fresh_nodes", 0), obs.Bool("fixpoint", true))
			break
		}
		nr := m.Or(reached, fresh)
		m.Deref(reached)
		reached = nr
		frontier = fresh
		ilg.record(fresh, frontier, "")
		tr.endIteration(isp, fresh, reached)
		if opts.Profile {
			tr.profileEvent(t, iters, fresh, reached)
		}
		if overBudget(start, iters, opts) {
			m.Deref(frontier)
			break
		}
	}
	captureCacheStats(m, &st)
	return Result{
		Reached:     reached,
		States:      tr.StateCount(reached),
		StatesExact: tr.stateCountExactOrNil(reached),
		Nodes:       m.DagSize(reached),
		Iterations:  iters,
		Completed:   completed,
		Abort:       st.AbortReason,
		Elapsed:     time.Since(start),
		Stats:       st,
	}
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
func (tr *TR) HighDensity(init bdd.Ref, opts Options) (res Result) {
	start := time.Now()
	m := tr.M
	if opts.Subset == nil {
		opts.Subset = RUASubsetter(1.0)
	}
	var st ImageStats
	t := obs.Of(m).Tracer()
	if opts.Budget > 0 {
		st.Deadline = start.Add(opts.Budget)
		m.SetDeadline(st.Deadline)
		defer m.SetDeadline(time.Time{})
	}
	if opts.NodeLimit > 0 {
		prev := m.NodeLimit()
		m.SetNodeLimit(opts.NodeLimit)
		defer m.SetNodeLimit(prev)
	}
	closures := 0
	reached := m.Ref(init)
	iters := 0
	completed := false
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(bdd.OpAborted)
			if !ok {
				panic(r)
			}
			abortRecord(tr, "hd", iters, ab.Reason)
			captureCacheStats(m, &st)
			res = Result{
				Reached:     reached,
				States:      tr.StateCount(reached),
				StatesExact: tr.stateCountExactOrNil(reached),
				Nodes:       m.DagSize(reached),
				Iterations:  iters,
				Closure:     closures,
				Abort:       ab.Reason,
				Elapsed:     time.Since(start),
				Stats:       st,
			}
		}
	}()
	frontier := m.Ref(init) // dense subset of the unexplored states
	for {
		iters++
		isp := tr.beginIteration(t, "hd", iters, frontier)
		ilg := tr.beginIterLedger("hd", iters, opts.Threshold, frontier)
		img := tr.Image(frontier, opts.PImg, &st)
		m.Deref(frontier)
		if st.Aborted {
			m.Deref(img)
			ilg.record(bdd.Zero, bdd.Zero, "image-deadline")
			isp.End(obs.Bool("aborted", true))
			break
		}
		fresh := m.Diff(img, reached)
		m.Deref(img)
		if fresh == bdd.Zero {
			// The dense frontier is exhausted; verify global closure
			// with an exact image of the full reached set.
			m.Deref(fresh)
			closures++
			cstart := time.Now()
			var csp *obs.Span
			if t.Enabled() {
				csp = t.Begin("reach.closure",
					obs.Int("closure", closures),
					obs.Int("reached_nodes", m.DagSize(reached)))
			}
			img := tr.Image(reached, nil, &st)
			if st.Aborted {
				m.Deref(img)
				st.ClosureTime += time.Since(cstart)
				ilg.record(bdd.Zero, bdd.Zero, "closure-deadline")
				csp.End(obs.Bool("aborted", true))
				isp.End(obs.Bool("aborted", true))
				break
			}
			fresh = m.Diff(img, reached)
			m.Deref(img)
			st.ClosureTime += time.Since(cstart)
			closed := fresh == bdd.Zero
			csp.End(obs.Bool("closed", closed))
			if closed {
				m.Deref(fresh)
				completed = true
				ilg.record(bdd.Zero, bdd.Zero, "")
				isp.End(obs.Int("fresh_nodes", 0), obs.Bool("fixpoint", true))
				break
			}
		}
		nr := m.Or(reached, fresh)
		m.Deref(reached)
		reached = nr
		sstart := time.Now()
		frontier = opts.Subset(m, fresh, opts.Threshold)
		st.SubsetTime += time.Since(sstart)
		if t.Enabled() {
			t.Event("reach.subset",
				obs.Int("frontier_before", m.DagSize(fresh)),
				obs.Int("threshold", opts.Threshold),
				obs.Int("frontier_after", m.DagSize(frontier)))
		}
		ilg.record(fresh, frontier, "")
		tr.endIteration(isp, fresh, reached)
		if opts.Profile {
			tr.profileEvent(t, iters, fresh, reached)
		}
		m.Deref(fresh)
		if overBudget(start, iters, opts) {
			m.Deref(frontier)
			break
		}
	}
	captureCacheStats(m, &st)
	return Result{
		Reached:     reached,
		States:      tr.StateCount(reached),
		StatesExact: tr.stateCountExactOrNil(reached),
		Nodes:       m.DagSize(reached),
		Iterations:  iters,
		Closure:     closures,
		Completed:   completed,
		Abort:       st.AbortReason,
		Elapsed:     time.Since(start),
		Stats:       st,
	}
}

// overBudget reports whether a traversal hit its iteration or wall-clock
// bound.
func overBudget(start time.Time, iters int, opts Options) bool {
	if opts.MaxIterations > 0 && iters >= opts.MaxIterations {
		return true
	}
	return opts.Budget > 0 && time.Since(start) > opts.Budget
}

// captureCacheStats snapshots the manager's computed-table counters into
// st at the end of a traversal; each Table 1 run uses a fresh manager, so
// the totals describe that run alone.
func captureCacheStats(m *bdd.Manager, st *ImageStats) {
	s := m.Stats()
	st.CacheLookups = s.CacheLookups
	st.CacheHits = s.CacheHits
	st.STWCount = s.STWCount
	st.STWTime = s.STWTime
}
