package approx

import (
	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// ShortPaths (SP) is short-path subsetting (Ravi–Somenzi, ICCAD'95; Table 2
// baseline of the paper): short paths to the One terminal correspond to
// large implicants represented with few nodes, so the subset keeps exactly
// the minterms covered by paths of bounded length. The bound is chosen (by
// binary search) as the largest that keeps the result within threshold
// nodes; if even the shortest-path subset exceeds the threshold it is
// returned anyway, as the smallest member of the family.
func ShortPaths(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
	defer m.PauseAutoReorder()()
	if f.IsConstant() {
		return m.Ref(f)
	}
	if threshold < 1 {
		threshold = 1
	}
	if m.DagSize(f) <= threshold {
		return m.Ref(f)
	}
	var span *obs.Span
	if t := obs.Of(m).Tracer(); t.Enabled() {
		span = t.Begin("approx.sp",
			obs.Int("size_in", m.DagSize(f)),
			obs.Int("threshold", threshold))
	}
	lg := beginLedger(m, "sp", f, threshold)
	sp := &shortPaths{m: m, dist: make(map[bdd.Ref]int)}
	dmin := sp.distToOne(f)
	lo, hi := dmin, m.NumVars()
	// Invariant: subsets of length < lo fit (or lo == dmin); length > hi
	// (i.e. the whole f) does not fit. Find the largest fitting bound.
	var best bdd.Ref = bdd.Ref(0)
	haveBest := false
	for lo <= hi {
		mid := (lo + hi) / 2
		r := sp.subset(f, mid)
		if m.DagSize(r) <= threshold {
			if haveBest {
				m.Deref(best)
			}
			best = r
			haveBest = true
			lo = mid + 1
		} else {
			m.Deref(r)
			hi = mid - 1
		}
	}
	if !haveBest {
		// Even the shortest paths overflow the threshold.
		best = sp.subset(f, dmin)
	}
	lg.done(best)
	if span != nil {
		span.End(obs.Int("size_out", m.DagSize(best)),
			obs.Str("level_deltas", levelDeltas(m, f, best)))
	}
	return best
}

type shortPaths struct {
	m    *bdd.Manager
	dist map[bdd.Ref]int // seen function -> shortest #arcs to One
}

const spInf = int(^uint(0) >> 2)

// distToOne returns the length (in arcs) of the shortest path from the
// function f to the value 1, taking complement parity into account by
// memoizing on seen references.
func (sp *shortPaths) distToOne(f bdd.Ref) int {
	if f == bdd.One {
		return 0
	}
	if f == bdd.Zero {
		return spInf
	}
	if d, ok := sp.dist[f]; ok {
		return d
	}
	// Break cycles impossible: DAG. Mark in progress unnecessary.
	dh := sp.distToOne(sp.m.Hi(f))
	dl := sp.distToOne(sp.m.Lo(f))
	d := dh
	if dl < d {
		d = dl
	}
	if d < spInf {
		d++
	}
	sp.dist[f] = d
	return d
}

// subset returns the union of all paths of f to One with length ≤ budget.
func (sp *shortPaths) subset(f bdd.Ref, budget int) bdd.Ref {
	type key struct {
		f      bdd.Ref
		budget int
	}
	m := sp.m
	memo := make(map[key]bdd.Ref)
	var rec func(f bdd.Ref, budget int) bdd.Ref
	rec = func(f bdd.Ref, budget int) bdd.Ref {
		if f == bdd.One {
			return bdd.One
		}
		if f == bdd.Zero || sp.distToOne(f) > budget {
			return bdd.Zero
		}
		// Clamp the budget to the longest useful value so equivalent
		// states share memo entries.
		k := key{f, budget}
		if r, ok := memo[k]; ok {
			return r
		}
		t := rec(m.Hi(f), budget-1)
		e := rec(m.Lo(f), budget-1)
		r := m.ITE(m.IthVar(m.Var(f)), t, e)
		memo[k] = r
		return r
	}
	r := rec(f, budget)
	m.Ref(r)
	for _, v := range memo {
		m.Deref(v)
	}
	return r
}
