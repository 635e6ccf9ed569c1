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

	// Computed-table traffic and reordering during the traversal (deltas
	// over its run, so compile and transition-relation build are
	// excluded): the memory-subsystem story behind the timing columns.
	// ReorderTime overlaps the phase times below: a sift runs inside an
	// image or a subsetting step.
	CacheLookups int64         // computed-table probes
	CacheHits    int64         // computed-table hits
	Reorderings  int64         // sifting passes
	ReorderTime  time.Duration // wall time in sifting passes

	// Per-phase wall-time breakdown of the traversal, accumulated by the
	// traversal loops and Image: where a Table 1 timing column actually
	// went.
	ImageTime   time.Duration // inside Image (first-image sift, clusters, partial-image cuts)
	SubsetTime  time.Duration // inside frontier subsetting (HD only)
	ClosureTime time.Duration // inside exact closure checks (HD only)
}

// Image computes the set of successors of from (a predicate over the
// present-state variables), expressed again over the present-state
// variables. With a non-nil pimg the result may be a dense subset of the
// exact image (partial image computation, Section 4 of the paper).
//
// The relation's first image sifts the variable order first when the
// manager's auto-reorder is armed (see siftOnce).
//
// The clusters are conjoined in one fixed order, the left-deep chain of
// imageChain, as VIS images the paper's Table 1 relations.
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
	tr.siftOnce()
	cur := tr.imageChain(m.ExistsCube(from, tr.PreCube), pimg, st)
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
		sz := m.DagSize(cur)
		if sz > st.PeakProduct {
			st.PeakProduct = sz
		}
		if pimg != nil && pimg.Limit > 0 && sz > pimg.Limit {
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
	return cur
}
