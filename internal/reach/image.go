package reach

import (
	"sync"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// Subsetter extracts a dense subset of a BDD; the paper's Table 1 plugs
// RemapUnderApprox or ShortPaths into this slot both for frontier
// subsetting and partial-image subsetting.
type Subsetter func(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref

// RUASubsetter adapts RemapUnderApprox with the given quality factor.
func RUASubsetter(quality float64) Subsetter {
	return func(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
		return approx.RemapUnderApprox(m, f, threshold, quality)
	}
}

// SPSubsetter adapts ShortPaths.
func SPSubsetter() Subsetter {
	return func(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
		return approx.ShortPaths(m, f, threshold)
	}
}

// HBSubsetter adapts HeavyBranch.
func HBSubsetter() Subsetter {
	return func(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
		return approx.HeavyBranch(m, f, threshold)
	}
}

// PImg configures partial-image subsetting inside image computation (the
// "PImg" column of Table 1): when an intermediate product exceeds Limit
// nodes, it is replaced by a dense subset of at most Threshold nodes.
type PImg struct {
	Limit     int
	Threshold int
	Subset    Subsetter
}

// ImageStats accumulates work counters across image computations.
type ImageStats struct {
	Images        int  // image computations performed
	AndExists     int  // relational products
	PImgCuts      int  // partial-image subsettings applied
	PeakLiveNodes int  // high-water mark of the manager's live nodes
	PeakProduct   int  // largest intermediate product seen
	Aborted       bool // an image hit the traversal deadline or node limit mid-way
	// AbortReason describes what tripped when Aborted is set (the
	// bdd.OpAborted reason, or the deadline poll between conjunctions).
	AbortReason string

	// Computed-table traffic over the manager for the whole run (the
	// traversals run on a fresh manager, so these are attributable to the
	// run): the memory-subsystem story behind the timing columns.
	CacheLookups int64 // computed-table probes
	CacheHits    int64 // computed-table hits

	// Stop-the-world accounting over the run (parallel engine only; zero
	// on the serial engine): the serial sections that bound the run's
	// attainable speedup under Amdahl's law.
	STWCount int64         // write-lease / stop-the-world epochs
	STWTime  time.Duration // pauses summed over those epochs (waits excluded)

	// Per-phase wall-time breakdown of the traversal, accumulated by the
	// traversal loops and Image: where a Table 1 timing column actually
	// went.
	ImageTime   time.Duration // inside Image (clusters + partial-image cuts)
	SubsetTime  time.Duration // inside frontier subsetting (HD only)
	ClosureTime time.Duration // inside exact closure checks (HD only)

	// Deadline, when non-zero, aborts image computation between cluster
	// conjunctions (set by the traversals from Options.Budget; an
	// in-flight relational product cannot be interrupted, so some
	// overshoot remains possible).
	Deadline time.Time
}

// Image computes the set of successors of from (a predicate over the
// present-state variables), expressed again over the present-state
// variables. With a non-nil pimg the result may be a dense subset of the
// exact image (partial image computation, Section 4 of the paper).
//
// When the traversal deadline trips inside a BDD operation (see
// bdd.OpAborted), the abort is absorbed here: the image reports Zero and
// st.Aborted is set, which the traversal loops treat as "budget over".
func (tr *TR) Image(from bdd.Ref, pimg *PImg, st *ImageStats) (res bdd.Ref) {
	m := tr.M
	t := obs.Of(m).Tracer()
	start := time.Now()
	var sp *obs.Span
	if t.Enabled() {
		sp = t.Begin("reach.image",
			obs.Int("from_nodes", m.DagSize(from)),
			obs.Int("clusters", len(tr.Clusters)),
			obs.Bool("pimg", pimg != nil))
	}
	defer func() {
		st.ImageTime += time.Since(start)
		if r := recover(); r != nil {
			if ab, ok := r.(bdd.OpAborted); ok {
				st.Aborted = true
				st.AbortReason = ab.Reason
				res = m.Ref(bdd.Zero)
				sp.End(obs.Bool("aborted", true))
				return
			}
			panic(r)
		}
		sp.End(obs.Bool("aborted", st.Aborted),
			obs.Int("peak_product", st.PeakProduct))
	}()
	st.Images++
	cur := m.ExistsCube(from, tr.PreCube)
	if pimg == nil && len(tr.Clusters) > 1 && m.Workers() > 1 {
		// Concurrent path: the image is exact either way, so canonicity
		// makes the tree agree Ref-for-Ref with the serial chain below.
		// Partial-image cuts depend on the conjunction order, so a non-nil
		// pimg keeps the serial schedule.
		var aborted bool
		cur, aborted = tr.imageTree(cur, st)
		if aborted {
			st.Aborted = true
			if st.AbortReason == "" {
				st.AbortReason = "operation aborted in concurrent image"
			}
			return m.Ref(bdd.Zero)
		}
		res = m.Permute(cur, tr.n2s)
		m.Deref(cur)
		if live := m.NodeCount(); live > st.PeakLiveNodes {
			st.PeakLiveNodes = live
		}
		return res
	}
	for k, c := range tr.Clusters {
		if !st.Deadline.IsZero() && time.Now().After(st.Deadline) {
			st.Aborted = true
			st.AbortReason = "deadline exceeded"
			m.Deref(cur)
			return m.Ref(bdd.Zero)
		}
		next := m.AndExists(cur, c, tr.Schedule[k])
		m.Deref(cur)
		cur = next
		st.AndExists++
		if sz := m.DagSize(cur); sz > st.PeakProduct {
			st.PeakProduct = sz
		}
		if pimg != nil && pimg.Limit > 0 {
			if sz := m.DagSize(cur); sz > pimg.Limit {
				sub := pimg.Subset(m, cur, pimg.Threshold)
				m.Deref(cur)
				cur = sub
				st.PImgCuts++
				if t.Enabled() {
					t.Event("reach.pimg_cut",
						obs.Int("cluster", k),
						obs.Int("product_nodes", sz),
						obs.Int("threshold", pimg.Threshold),
						obs.Int("result_nodes", m.DagSize(cur)))
				}
			}
		}
	}
	// Rename next-state to present-state variables.
	res = m.Permute(cur, tr.n2s)
	m.Deref(cur)
	if live := m.NodeCount(); live > st.PeakLiveNodes {
		st.PeakLiveNodes = live
	}
	return res
}

// imageTree conjoins the frontier with the clusters by a balanced pairwise
// reduction tree instead of the serial left-deep chain: each level merges
// adjacent operands with AndExists in concurrent goroutines on the shared
// manager, so independent relational products overlap. The quantification
// schedule is recomputed per level from the live supports: a present-state
// or input variable is abstracted inside the pair that holds its last
// remaining occurrences (∃v.(f∧g) = (∃v.f)∧g needs v ∉ supp(g), so a
// variable may only be quantified once its support collapses into a single
// pair). Takes ownership of cur; returns the exact image frontier over the
// next-state variables, before the Permute back to present-state.
//
// A bdd.OpAborted raised inside a worker goroutine is captured and
// re-panicked on the calling goroutine after the level joins, so Image's
// recover sees it exactly as on the serial path.
func (tr *TR) imageTree(cur bdd.Ref, st *ImageStats) (res bdd.Ref, aborted bool) {
	m := tr.M
	quantifiable := make(map[int]bool, len(tr.StateVars)+len(tr.InputVars))
	for _, v := range tr.StateVars {
		quantifiable[v] = true
	}
	for _, v := range tr.InputVars {
		quantifiable[v] = true
	}
	items := make([]bdd.Ref, 0, len(tr.Clusters)+1)
	items = append(items, cur)
	for _, c := range tr.Clusters {
		items = append(items, m.Ref(c))
	}
	release := func() {
		for _, f := range items {
			m.Deref(f)
		}
	}
	for len(items) > 1 {
		if !st.Deadline.IsZero() && time.Now().After(st.Deadline) {
			release()
			return bdd.Zero, true
		}
		// Support census over the remaining operands.
		occ := make(map[int]int)
		supports := make([][]int, len(items))
		for i, f := range items {
			supports[i] = m.SupportVars(f)
			for _, v := range supports[i] {
				if quantifiable[v] {
					occ[v]++
				}
			}
		}
		pairs := len(items) / 2
		next := make([]bdd.Ref, pairs)
		panics := make([]any, pairs)
		cubes := make([]bdd.Ref, pairs)
		for p := 0; p < pairs; p++ {
			inPair := make(map[int]int)
			for _, side := range [2][]int{supports[2*p], supports[2*p+1]} {
				for _, v := range side {
					if quantifiable[v] {
						inPair[v]++
					}
				}
			}
			var qv []int
			for v, n := range inPair {
				if occ[v] == n {
					qv = append(qv, v)
				}
			}
			cubes[p] = m.CubeFromVars(qv)
		}
		var wg sync.WaitGroup
		for p := 0; p < pairs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer func() { panics[p] = recover() }()
				next[p] = m.AndExists(items[2*p], items[2*p+1], cubes[p])
			}(p)
		}
		wg.Wait()
		for p := 0; p < pairs; p++ {
			m.Deref(cubes[p])
		}
		for _, r := range panics {
			if r != nil {
				for p := 0; p < pairs; p++ {
					if panics[p] == nil {
						m.Deref(next[p])
					}
				}
				release()
				panic(r)
			}
		}
		merged := make([]bdd.Ref, 0, pairs+1)
		for p := 0; p < pairs; p++ {
			m.Deref(items[2*p])
			m.Deref(items[2*p+1])
			merged = append(merged, next[p])
			st.AndExists++
			if sz := m.DagSize(next[p]); sz > st.PeakProduct {
				st.PeakProduct = sz
			}
		}
		if len(items)%2 == 1 {
			merged = append(merged, items[len(items)-1])
		}
		items = merged
	}
	res = items[0]
	// The final merge quantified every remaining schedulable variable (at
	// that point its support is necessarily confined to the last pair);
	// sweep up defensively in case the loop ran zero levels.
	var left []int
	for _, v := range m.SupportVars(res) {
		if quantifiable[v] {
			left = append(left, v)
		}
	}
	if len(left) > 0 {
		cube := m.CubeFromVars(left)
		out := m.ExistsCube(res, cube)
		m.Deref(cube)
		m.Deref(res)
		res = out
	}
	return res, false
}
