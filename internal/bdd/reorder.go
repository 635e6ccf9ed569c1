package bdd

import (
	"fmt"
	"sort"
	"time"
)

// Dynamic variable reordering by sifting (Rudell, ICCAD'93), built on an
// in-place swap of adjacent levels. External Refs remain valid across
// reordering: a node keeps its arena index and denotes the same function.
// A swap touches only the stored nodes of its two levels, and rehashes only
// those whose children it rewrites (see swapInPlace).
//
// The Table 1 experiments of the paper run with dynamic reordering always
// on; clients get the same effect by enabling auto-reordering, which
// triggers at the entry of an operation once the live node count crosses a
// threshold. Every binary Boolean connective, ITE and quantifier takes the
// hook; Not (a free complement), Leq, Compose, Permute and CubeFromVars do
// not.

// ReorderMethod selects a reordering algorithm.
type ReorderMethod int

const (
	// ReorderSift sifts each variable (most populous first) to its
	// locally optimal level.
	ReorderSift ReorderMethod = iota
	// ReorderSiftConverge repeats sifting until no improvement.
	ReorderSiftConverge
)

// SiftConfig bounds the work done by one sifting pass.
type SiftConfig struct {
	// MaxVars bounds how many variables are sifted (0 = all).
	MaxVars int
}

// siftMaxGrowth ends a directional sweep of a variable's sift once the
// live count exceeds siftMaxGrowth times the count at the start of that
// variable's sift (CUDD's maxGrowth, fixed here). The sweep in the other
// direction still runs.
const siftMaxGrowth = 2.0

// EnableAutoReorder arms automatic sifting: whenever a hooked operation
// starts and the live node count exceeds threshold, the manager sifts and
// doubles the threshold. Refs held by callers stay valid. The hooked
// operations are every binary Boolean connective, ITE and quantifier; Not,
// Leq, Compose, Permute and CubeFromVars never reorder.
func (m *Manager) EnableAutoReorder(threshold int) {
	if threshold > 0 {
		m.reorderThreshold = threshold
	}
	m.autoReorder = true
}

// DisableAutoReorder turns automatic sifting off.
func (m *Manager) DisableAutoReorder() { m.autoReorder = false }

// PauseAutoReorder disables automatic sifting and returns a function that
// restores the previous setting. Algorithms that hold a structural view of
// a BDD across operation calls (the approximation and decomposition passes)
// must pause reordering, because an in-place swap rewrites node children
// under them.
func (m *Manager) PauseAutoReorder() (restore func()) {
	prev := m.autoReorder
	m.autoReorder = false
	return func() { m.autoReorder = prev }
}

// autoSiftMaxVars bounds how many variables one automatic sifting pass
// examines: unbounded sifting on a very large table can dwarf the work it
// saves (CUDD bounds automatic sifting the same way).
const autoSiftMaxVars = 64

// maybeReorder is the auto-reorder hook run at the entry of the hooked
// operations (see EnableAutoReorder): it sifts once and doubles the
// threshold when automatic reordering is armed and the live count exceeds
// it.
func (m *Manager) maybeReorder() {
	if m.autoReorder && m.liveCount > m.reorderThreshold {
		m.Reorder(ReorderSift, SiftConfig{MaxVars: autoSiftMaxVars})
		next := 2 * m.liveCount
		if next < m.reorderThreshold {
			next = m.reorderThreshold
		}
		m.reorderThreshold = next
	}
}

// Reorder runs the given reordering method now. It returns the live node
// count after reordering. Inside a Run whose context has ended it does
// nothing: the next allocation check raises the abort.
func (m *Manager) Reorder(method ReorderMethod, cfg SiftConfig) int {
	if m.stopRequested() {
		return m.liveCount
	}
	start := time.Now()
	before := m.liveCount
	// Reordering must not race a garbage collection triggered by its own
	// makeNode calls: sweep first, then forbid GC for the duration. The
	// cache is not swept here — swapInPlace rewrites children and frees
	// nodes without cache maintenance, so the whole table is invalidated
	// at the end with an O(1) generation bump instead. Both sweeps may
	// stop early once the Run's context ends (see gc), leaving dead nodes
	// to the next collection; no swap runs after a cut sweep.
	m.gc(false, true)
	m.noGC = true
	defer func() { m.noGC = false }()

	if !m.stopRequested() {
		switch method {
		case ReorderSift:
			m.siftAll(cfg)
		case ReorderSiftConverge:
			prev := m.liveCount
			for {
				m.siftAll(cfg)
				if m.liveCount >= prev || m.stopRequested() {
					break
				}
				prev = m.liveCount
			}
		case ReorderWindow3:
			for m.windowPass() {
			}
		case ReorderExact:
			m.exactReorder()
		}
	}
	// Sweep the dead left behind by the swaps, then invalidate every
	// cached result at once: node children were rewritten in place, so no
	// pre-reorder entry can be trusted. The generation bump costs O(1);
	// no walk over the cache happens on this path.
	saved := m.noGC
	m.noGC = false
	m.gc(false, true)
	m.noGC = saved
	m.cache.invalidateAll()
	m.stats.CacheGenerations++
	m.stats.Reorderings++
	dur := time.Since(start)
	m.stats.ReorderTime += dur
	if m.observer != nil {
		m.observer.Reorder(before, m.liveCount, dur)
	}
	return m.liveCount
}

// SetOrder rearranges the variable order so that order[lev] is the
// variable index sitting at level lev afterwards. order must be a
// permutation of 0..NumVars-1. External Refs remain valid, exactly as
// under Reorder; the computed cache is wholesale-invalidated at the end.
// Differential tests use this to reload a saved forest under a
// deliberately different order; clients can use it to restore a known
// good order. It installs the whole order even inside a Run whose context
// has ended, so its sweeps never stop early (swaps follow them; see gc).
func (m *Manager) SetOrder(order []int) error {
	if len(order) != len(m.vars) {
		return fmt.Errorf("bdd: SetOrder: %d entries for %d variables", len(order), len(m.vars))
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			return fmt.Errorf("bdd: SetOrder: not a permutation of 0..%d", len(order)-1)
		}
		seen[v] = true
	}
	start := time.Now()
	before := m.liveCount
	m.gc(false, false)
	m.noGC = true
	defer func() { m.noGC = false }()
	// Fix levels top-down: bubble each target variable up to its slot
	// with adjacent swaps (levels above lev are already final).
	for lev := 0; lev < len(order); lev++ {
		for cur := int(m.varToLev[order[lev]]); cur > lev; cur-- {
			m.swapInPlace(cur - 1)
		}
	}
	saved := m.noGC
	m.noGC = false
	m.gc(false, false)
	m.noGC = saved
	m.cache.invalidateAll()
	m.stats.CacheGenerations++
	m.stats.Reorderings++
	dur := time.Since(start)
	m.stats.ReorderTime += dur
	if m.observer != nil {
		m.observer.Reorder(before, m.liveCount, dur)
	}
	return nil
}

// GarbageCollectDeferred sweeps dead nodes even while noGC blocks
// collection inside allocation; used when the table is consistent again
// after a pass that suspended collection.
func (m *Manager) GarbageCollectDeferred() {
	saved := m.noGC
	m.noGC = false
	m.gc(true, false)
	m.noGC = saved
}

// siftAll sifts variables in decreasing order of subtable population. It
// ends early when the enclosing Run's context ends (see siftVar).
func (m *Manager) siftAll(cfg SiftConfig) {
	n := len(m.vars)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa := m.subtables[m.varToLev[order[a]]].count
		sb := m.subtables[m.varToLev[order[b]]].count
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	limit := n
	if cfg.MaxVars > 0 && cfg.MaxVars < limit {
		limit = cfg.MaxVars
	}
	for i := 0; i < limit && !m.stopRequested(); i++ {
		m.siftVar(order[i])
	}
}

// siftVar moves variable v through the order, first toward the closer end,
// then all the way to the other end, and finally parks it at the best level
// seen. Allocation checks are suspended while the table is mid-swap, so
// the sweeps poll the enclosing Run's context flag between swaps instead:
// once it is raised they stop, and the variable is parked at the best
// level seen so far. The table is consistent between swaps, and the next
// allocation check after the pass raises the abort.
func (m *Manager) siftVar(v int) {
	start := int(m.varToLev[v])
	n := len(m.subtables)
	bestSize := m.liveCount
	bestLev := start
	bound := int(siftMaxGrowth * float64(m.liveCount))

	down := func() {
		for int(m.varToLev[v]) < n-1 && !m.stopRequested() {
			size := m.swapInPlace(int(m.varToLev[v]))
			if size < bestSize {
				bestSize = size
				bestLev = int(m.varToLev[v])
			}
			if size > bound {
				break
			}
		}
	}
	up := func() {
		for m.varToLev[v] > 0 && !m.stopRequested() {
			size := m.swapInPlace(int(m.varToLev[v]) - 1)
			if size < bestSize {
				bestSize = size
				bestLev = int(m.varToLev[v])
			}
			if size > bound {
				break
			}
		}
	}
	// Go to the closer end first to halve the expected swap count.
	if start <= n-1-start {
		up()
		down()
	} else {
		down()
		up()
	}
	// Park at the best level.
	for int(m.varToLev[v]) < bestLev {
		m.swapInPlace(int(m.varToLev[v]))
	}
	for int(m.varToLev[v]) > bestLev {
		m.swapInPlace(int(m.varToLev[v]) - 1)
	}
}

// swapInPlace exchanges the variables at levels lev and lev+1 and returns
// the live node count afterwards. All Refs keep denoting the same
// functions.
//
// As in CUDD's cuddSwapInPlace, a subtable belongs to its variable, so the
// two subtables first change places. The bucket hash ignores the level, so
// a node whose children stay put keeps its bucket, and each table stays
// sized for its own variable rather than for the largest variable that
// ever crossed its level. The swap then visits each stored node of the two
// levels once:
//
//   - x's table (x moves down to lev+1): dead nodes are freed, nodes with
//     no child labeled y are relabeled in place, and the rest are unlinked
//     for rewriting;
//   - each unlinked node is rewritten in place into a y-labeled node whose
//     children are x-labeled nodes found or made in x's table;
//   - y's table (y moves up to lev): dead nodes, including those the
//     rewrite just released, are freed and the survivors relabeled; then
//     the rewritten nodes are hashed in.
func (m *Manager) swapInPlace(lev int) int {
	l0, l1 := int32(lev), int32(lev+1)
	m.subtables[l0], m.subtables[l1] = m.subtables[l1], m.subtables[l0]
	stY, stX := &m.subtables[l0], &m.subtables[l1]

	rewrite := m.swapBuf[:0]
	for b := range stX.buckets {
		link := &stX.buckets[b]
		for idx := *link; idx != nilIndex; idx = *link {
			n := &m.nodes[idx]
			switch {
			case n.ref == 0:
				*link = n.next
				stX.count--
				m.freeDead(idx)
			case m.nodes[n.hi.index()].level == l1 || m.nodes[n.lo.index()].level == l1:
				*link = n.next
				stX.count--
				rewrite = append(rewrite, idx)
			default:
				n.level = l1
				link = &n.next
			}
		}
	}

	// Rewrite interacting x nodes in place: they become y-labeled nodes
	// at level lev whose children are (possibly fresh) x-labeled nodes at
	// level lev+1. The y nodes are still labeled lev+1 here, which is how
	// the children are told apart, and are absent from x's table, which
	// the makeNode calls probe.
	for _, idx := range rewrite {
		hi, lo := m.nodes[idx].hi, m.nodes[idx].lo
		var f11, f10, f01, f00 Ref
		if m.nodes[hi.index()].level == l1 {
			f11, f10 = m.nodes[hi.index()].hi, m.nodes[hi.index()].lo
		} else {
			f11, f10 = hi, hi
		}
		if m.nodes[lo.index()].level == l1 {
			c := lo & 1
			f01, f00 = m.nodes[lo.index()].hi^c, m.nodes[lo.index()].lo^c
		} else {
			f01, f00 = lo, lo
		}
		// f11 and f01-reachability keep the grandchildren alive through
		// hi and lo until the new children hold them.
		newHi := m.makeNode(l1, f11, f01)
		newLo := m.makeNode(l1, f10, f00)
		// The then edge of the rewritten node must stay regular; f11 is
		// regular (then edges are never complemented), so newHi is too.
		if newHi.IsComplement() {
			panic("bdd: swapInPlace produced complemented then edge")
		}
		// The node pointer must be taken only now: makeNode may have
		// grown the arena, invalidating earlier pointers into it.
		n := &m.nodes[idx]
		n.hi = newHi
		n.lo = newLo
		// Release the parental references on the old children; cascades
		// may kill y nodes or deeper nodes, which is fine.
		m.derefIndex(hi.index())
		m.derefIndex(lo.index())
	}

	for b := range stY.buckets {
		link := &stY.buckets[b]
		for idx := *link; idx != nilIndex; idx = *link {
			n := &m.nodes[idx]
			if n.ref == 0 {
				*link = n.next
				stY.count--
				m.freeDead(idx)
				continue
			}
			n.level = l0
			link = &n.next
		}
	}
	for _, idx := range rewrite {
		m.insertNode(stY, idx)
	}
	m.swapBuf = rewrite[:0]

	// Swap the order bookkeeping.
	vx, vy := m.levToVar[l0], m.levToVar[l1]
	m.levToVar[l0], m.levToVar[l1] = vy, vx
	m.varToLev[vx], m.varToLev[vy] = l1, l0
	return m.liveCount
}

// freeDead puts a dead node that is no longer chained in its subtable on
// the free list. A dead node holds no child references, so its children
// are left alone.
func (m *Manager) freeDead(idx int32) {
	n := &m.nodes[idx]
	n.next = m.free
	n.level = -1
	m.free = idx
	m.deadCount--
}

// insertNode hashes an existing node into a subtable.
func (m *Manager) insertNode(st *subtable, idx int32) {
	n := &m.nodes[idx]
	b := hash2(n.hi, n.lo) & st.mask
	n.next = st.buckets[b]
	st.buckets[b] = idx
	st.count++
	if st.count > loadFactor*len(st.buckets) {
		m.stats.UniqueGrows++
		m.growSubtable(st)
	}
}
