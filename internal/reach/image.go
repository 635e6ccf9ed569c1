package reach

import (
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
	Images        int // image computations performed
	AndExists     int // relational products
	PImgCuts      int // partial-image subsettings applied
	PeakLiveNodes int // high-water mark of the manager's live nodes
	PeakProduct   int // largest intermediate product seen

	// Computed-table traffic during the traversal (a delta over its run,
	// so compile and transition-relation build are excluded): the
	// memory-subsystem story behind the timing columns.
	CacheLookups int64 // computed-table probes
	CacheHits    int64 // computed-table hits

	// Per-phase wall-time breakdown of the traversal, accumulated by the
	// traversal loops and Image: where a Table 1 timing column actually
	// went.
	ImageTime   time.Duration // inside Image (clusters + partial-image cuts)
	SubsetTime  time.Duration // inside frontier subsetting (HD only)
	ClosureTime time.Duration // inside exact closure checks (HD only)
}

// Image computes the set of successors of from (a predicate over the
// present-state variables), expressed again over the present-state
// variables. With a non-nil pimg the result may be a dense subset of the
// exact image (partial image computation, Section 4 of the paper).
//
// The manager's worker count picks the conjunction schedule, and nothing
// else does: with Workers() > 1 an exact image conjoins the clusters in a
// balanced pairwise tree (imageTree), otherwise in the left-deep chain
// (imageChain). Both run on the calling goroutine. The image is exact
// either way, so canonicity makes the two agree Ref for Ref. Partial-image
// cuts depend on the conjunction order, so a non-nil pimg always takes the
// chain.
//
// A limit that trips inside (see bdd.OpAborted) unwinds through Image to
// the bdd.Manager.Run that armed it; the image span still closes, marked
// aborted.
func (tr *TR) Image(from bdd.Ref, pimg *PImg, st *ImageStats) bdd.Ref {
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
	aborted := true // until the image is done
	defer func() {
		st.ImageTime += time.Since(start)
		sp.End(obs.Bool("aborted", aborted),
			obs.Int("peak_product", st.PeakProduct))
	}()
	st.Images++
	cur := m.ExistsCube(from, tr.PreCube)
	if pimg == nil && len(tr.Clusters) > 1 && m.Workers() > 1 {
		cur = tr.imageTree(cur, st)
	} else {
		cur = tr.imageChain(cur, pimg, st)
	}
	// Rename next-state to present-state variables.
	res := m.Permute(cur, tr.n2s)
	m.Deref(cur)
	if live := m.NodeCount(); live > st.PeakLiveNodes {
		st.PeakLiveNodes = live
	}
	aborted = false
	return res
}

// imageChain conjoins the frontier with the clusters in order, quantifying
// each cluster's schedule as it goes, and cuts oversized products to
// pimg's threshold. Takes ownership of cur; returns the image over the
// next-state variables.
func (tr *TR) imageChain(cur bdd.Ref, pimg *PImg, st *ImageStats) bdd.Ref {
	m := tr.M
	t := obs.Of(m).Tracer()
	for k, c := range tr.Clusters {
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
	return cur
}

// imageTree conjoins the frontier with the clusters by a balanced pairwise
// reduction tree instead of the left-deep chain: each level merges
// adjacent operands with AndExists. The quantification schedule is
// recomputed per level from the live supports: a present-state or input
// variable is abstracted inside the pair that holds its last remaining
// occurrences (∃v.(f∧g) = (∃v.f)∧g needs v ∉ supp(g), so a variable may
// only be quantified once its support collapses into a single pair). Takes
// ownership of cur; returns the exact image frontier over the next-state
// variables, before the Permute back to present-state.
func (tr *TR) imageTree(cur bdd.Ref, st *ImageStats) bdd.Ref {
	m := tr.M
	quantifiable := make(map[int]bool, len(tr.StateVars)+len(tr.InputVars))
	for _, v := range tr.StateVars {
		quantifiable[v] = true
	}
	for _, v := range tr.InputVars {
		quantifiable[v] = true
	}
	// supports[i] is items[i]'s support, nil until a level needs it: the
	// clusters' come from the TR, and an operand carried to the next level
	// keeps its own.
	items := make([]bdd.Ref, 0, len(tr.Clusters)+1)
	supports := make([][]int, 0, len(tr.Clusters)+1)
	items = append(items, cur)
	supports = append(supports, nil)
	for k, c := range tr.Clusters {
		items = append(items, m.Ref(c))
		supports = append(supports, tr.supports[k])
	}
	for len(items) > 1 {
		// Support census over the remaining operands.
		occ := make(map[int]int)
		for i, f := range items {
			if supports[i] == nil {
				supports[i] = m.SupportVars(f)
			}
			for _, v := range supports[i] {
				if quantifiable[v] {
					occ[v]++
				}
			}
		}
		pairs := len(items) / 2
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
		next := conjoinPairs(m, items, cubes)
		for _, c := range cubes {
			m.Deref(c)
		}
		merged := make([]bdd.Ref, 0, pairs+1)
		mergedSup := make([][]int, pairs, pairs+1)
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
			mergedSup = append(mergedSup, supports[len(items)-1])
		}
		items, supports = merged, mergedSup
	}
	res := items[0]
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
	return res
}

// conjoinPairs returns AndExists(items[2p], items[2p+1], cubes[p]) for
// every pair p, in order. When a product aborts (a bdd.OpAborted from the
// enclosing bdd.Manager.Run, or any other panic) it releases the products
// already finished, the cubes and every operand before the panic
// continues.
func conjoinPairs(m *bdd.Manager, items, cubes []bdd.Ref) []bdd.Ref {
	next := make([]bdd.Ref, 0, len(cubes))
	defer func() {
		if r := recover(); r != nil {
			for _, f := range next {
				m.Deref(f)
			}
			for _, f := range cubes {
				m.Deref(f)
			}
			for _, f := range items {
				m.Deref(f)
			}
			panic(r)
		}
	}()
	for p, c := range cubes {
		next = append(next, m.AndExists(items[2*p], items[2*p+1], c))
	}
	return next
}
