package bdd

import (
	"fmt"
	"sort"
	"time"
)

// Dynamic variable reordering by sifting (Rudell, ICCAD'93), built on an
// in-place swap of adjacent levels. External Refs remain valid across
// reordering: a node keeps its arena index and denotes the same function;
// only levels, subtable membership, and (for nodes that interact with the
// swapped variable) children change.
//
// The Table 1 experiments of the paper run with dynamic reordering always
// on; clients get the same effect by enabling auto-reordering, which
// triggers at the entry of an operation once the live node count crosses a
// threshold. One rule covers both engines: every binary Boolean
// connective, ITE and quantifier takes the hook; Not (a free complement),
// Leq, Compose, Permute and CubeFromVars do not.

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
	// MaxGrowth aborts a directional sweep when the size exceeds
	// MaxGrowth times the size at the start of the variable's sift
	// (0 = use the manager default).
	MaxGrowth float64
}

// EnableAutoReorder arms automatic sifting: whenever a hooked operation
// starts and the live node count exceeds threshold, the manager sifts and
// doubles the threshold. Refs held by callers stay valid. At any worker
// count the hooked operations are every binary Boolean connective, ITE and
// quantifier; Not, Leq, Compose, Permute and CubeFromVars never reorder.
func (m *Manager) EnableAutoReorder(threshold int) {
	m.exclusive(func() {
		if threshold > 0 {
			m.reorderThreshold = threshold
		}
		m.autoReorder = true
		m.syncReorderMirrors()
	})
}

// DisableAutoReorder turns automatic sifting off.
func (m *Manager) DisableAutoReorder() {
	m.exclusive(func() {
		m.autoReorder = false
		m.syncReorderMirrors()
	})
}

// PauseAutoReorder disables automatic sifting and returns a function that
// restores the previous setting. Algorithms that hold a structural view of
// a BDD across operation calls (the approximation and decomposition passes)
// must pause reordering, because an in-place swap rewrites node children
// under them.
func (m *Manager) PauseAutoReorder() (restore func()) {
	var prev bool
	m.exclusive(func() {
		prev = m.autoReorder
		m.autoReorder = false
		m.syncReorderMirrors()
	})
	return func() {
		m.exclusive(func() {
			m.autoReorder = prev
			m.syncReorderMirrors()
		})
	}
}

// syncReorderMirrors re-publishes the reordering tunables into the parallel
// engine's pre-lease atomics. Callers own a quiescent manager.
func (m *Manager) syncReorderMirrors() {
	if m.par == nil {
		return
	}
	m.par.autoReorderA.Store(m.autoReorder)
	m.par.reorderThresholdA.Store(int64(m.reorderThreshold))
}

// autoSiftMaxVars bounds how many variables one automatic sifting pass
// examines: unbounded sifting on a very large table can dwarf the work it
// saves (CUDD bounds automatic sifting the same way).
const autoSiftMaxVars = 64

// maybeReorder is the auto-reorder hook run at the entry of the hooked
// operations (see EnableAutoReorder). On a parallel manager the fast path
// reads two atomics; arming takes the write lease and re-checks, then sifts
// the quiescent manager. That epoch is attributed to the reorder cause even
// when the re-check declines: the exclusion really happened and operations
// really waited.
func (m *Manager) maybeReorder() {
	e := m.par
	if e == nil {
		m.autoSift()
		return
	}
	if !e.autoReorderA.Load() || e.liveApprox() <= e.reorderThresholdA.Load() {
		return
	}
	m.exclusiveCause(stwReorder, m.autoSift)
}

// autoSift sifts once and doubles the threshold when automatic reordering
// is armed and the live count exceeds it. Callers own a quiescent manager.
func (m *Manager) autoSift() {
	if m.autoReorder && m.liveCount > m.reorderThreshold {
		m.reorderNow(ReorderSift, SiftConfig{MaxVars: autoSiftMaxVars})
		next := 2 * m.liveCount
		if next < m.reorderThreshold {
			next = m.reorderThreshold
		}
		m.reorderThreshold = next
	}
}

// Reorder runs the given reordering method now. It returns the live node
// count after reordering. On a parallel manager the pass waits for every
// in-flight operation to finish and runs with the manager to itself.
func (m *Manager) Reorder(method ReorderMethod, cfg SiftConfig) int {
	var n int
	m.exclusiveCause(stwReorder, func() { n = m.reorderNow(method, cfg) })
	return n
}

// reorderNow is the reordering body; callers own a quiescent manager.
func (m *Manager) reorderNow(method ReorderMethod, cfg SiftConfig) int {
	if cfg.MaxGrowth <= 1 {
		cfg.MaxGrowth = m.maxGrowth
	}
	start := time.Now()
	before := m.liveCount
	// Reordering must not race a garbage collection triggered by its own
	// makeNode calls: sweep first, then forbid GC for the duration. The
	// cache is not swept here — swapInPlace rewrites children and frees
	// nodes without cache maintenance, so the whole table is invalidated
	// at the end with an O(1) generation bump instead.
	m.gc(false)
	m.noGC = true
	defer func() { m.noGC = false }()

	switch method {
	case ReorderSift:
		m.siftAll(cfg)
	case ReorderSiftConverge:
		prev := m.liveCount
		for {
			m.siftAll(cfg)
			if m.liveCount >= prev {
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
	// Sweep the dead left behind by the swaps, then invalidate every
	// cached result at once: node children were rewritten in place, so no
	// pre-reorder entry can be trusted. The generation bump costs O(1);
	// no walk over the cache happens on this path.
	saved := m.noGC
	m.noGC = false
	m.gc(false)
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
// good order.
func (m *Manager) SetOrder(order []int) error {
	var err error
	m.exclusiveCause(stwReorder, func() { err = m.setOrderNow(order) })
	return err
}

// setOrderNow is the SetOrder body; callers own a quiescent manager.
func (m *Manager) setOrderNow(order []int) error {
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
	m.gc(false)
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
	m.gc(false)
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
	m.exclusiveCause(stwGC, func() {
		saved := m.noGC
		m.noGC = false
		m.gc(true)
		m.noGC = saved
	})
}

// siftAll sifts variables in decreasing order of subtable population.
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
	for i := 0; i < limit; i++ {
		m.siftVar(order[i], cfg.MaxGrowth)
	}
}

// siftVar moves variable v through the order, first toward the closer end,
// then all the way to the other end, and finally parks it at the best level
// seen.
func (m *Manager) siftVar(v int, maxGrowth float64) {
	start := int(m.varToLev[v])
	n := len(m.subtables)
	bestSize := m.liveCount
	bestLev := start
	bound := int(maxGrowth * float64(m.liveCount))

	down := func() {
		for int(m.varToLev[v]) < n-1 {
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
		for m.varToLev[v] > 0 {
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
func (m *Manager) swapInPlace(lev int) int {
	l0, l1 := int32(lev), int32(lev+1)
	m.sweepDeadAtLevel(l0)
	m.sweepDeadAtLevel(l1)

	stX := &m.subtables[l0]
	stY := &m.subtables[l1]

	// Detach every x node (level lev) and y node (level lev+1). The y
	// nodes must be invisible to the unique-table lookups performed while
	// rewriting, because new x-labeled nodes are created at level lev+1.
	xs := m.detachAll(stX)
	ys := m.detachAll(stY)

	// Non-interacting x nodes move down to level lev+1 unchanged.
	var rewrite []int32
	for _, idx := range xs {
		n := &m.nodes[idx]
		if m.nodes[n.hi.index()].level == l1 || m.nodes[n.lo.index()].level == l1 {
			rewrite = append(rewrite, idx)
		} else {
			n.level = l1
			m.insertNode(stY, l1, idx)
		}
	}

	// Rewrite interacting x nodes in place: they become y-labeled nodes
	// at level lev whose children are (possibly fresh) x-labeled nodes at
	// level lev+1.
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
		// may kill detached y nodes or deeper nodes, which is fine.
		m.derefIndex(hi.index())
		m.derefIndex(lo.index())
		m.insertNode(stX, l0, idx)
	}

	// Surviving y nodes move up to level lev; dead ones are freed. On a
	// parallel manager a dead node still holds its child references
	// (deferred death) — drop them now, since the slot is going away.
	freed := 0
	for _, idx := range ys {
		if m.nodes[idx].ref == 0 {
			if m.par != nil {
				m.dropChildRefs(idx)
			}
			n := &m.nodes[idx]
			n.next = m.free
			n.level = -1
			m.free = idx
			freed++
			continue
		}
		n := &m.nodes[idx]
		n.level = l0
		m.insertNode(stX, l0, idx)
	}
	m.deadCount -= freed

	// Swap the order bookkeeping.
	vx, vy := m.levToVar[l0], m.levToVar[l1]
	m.levToVar[l0], m.levToVar[l1] = vy, vx
	m.varToLev[vx], m.varToLev[vy] = l1, l0
	return m.liveCount
}

// sweepDeadAtLevel removes dead nodes from one subtable and frees them
// (dropping the child references parallel-dead nodes still hold).
func (m *Manager) sweepDeadAtLevel(lev int32) {
	st := &m.subtables[lev]
	freed := 0
	for b, head := range st.buckets {
		var keep int32 = nilIndex
		for idx := head; idx != nilIndex; {
			next := m.nodes[idx].next
			if m.nodes[idx].ref == 0 {
				if m.par != nil {
					m.dropChildRefs(idx)
				}
				m.nodes[idx].next = m.free
				m.nodes[idx].level = -1
				m.free = idx
				st.count--
				freed++
			} else {
				m.nodes[idx].next = keep
				keep = idx
			}
			idx = next
		}
		st.buckets[b] = keep
	}
	m.deadCount -= freed
}

// detachAll empties a subtable and returns the indices it contained.
func (m *Manager) detachAll(st *subtable) []int32 {
	out := make([]int32, 0, st.count)
	for b, head := range st.buckets {
		for idx := head; idx != nilIndex; idx = m.nodes[idx].next {
			out = append(out, idx)
		}
		st.buckets[b] = nilIndex
	}
	st.count = 0
	return out
}

// insertNode hashes an existing node into a subtable.
func (m *Manager) insertNode(st *subtable, lev int32, idx int32) {
	n := &m.nodes[idx]
	b := hash3(lev, n.hi, n.lo) & st.mask
	n.next = st.buckets[b]
	st.buckets[b] = idx
	st.count++
	if st.count > loadFactor*len(st.buckets) {
		m.stats.UniqueGrows++
		m.growSubtable(lev)
	}
}
