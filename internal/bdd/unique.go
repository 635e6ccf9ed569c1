package bdd

import "time"

// This file implements the unique table (one subtable per variable, kept at
// the index of the variable's level), node allocation, and garbage
// collection.
//
// Reference-counting invariants:
//
//   - node.ref counts live parents (one per live parent node) plus
//     references owned by callers (taken with Manager.Ref or granted by an
//     operation's return value).
//   - A node with ref == 0 is dead. Dead nodes hold NO references on their
//     children: the references are dropped when the count reaches zero
//     (derefIndex) and restored by reclaim when the node comes back to life.
//   - makeNode requires its children to be alive (the caller owns
//     references on them) and returns a Ref carrying one reference owned by
//     the caller. Every recursive operation helper follows the same
//     convention, so freshly built results stay alive throughout and die as
//     a whole when the user releases the root.
//   - Garbage collection only runs inside allocation or on explicit
//     request; at those points everything reachable from the recursion
//     stacks is referenced, so GC is always safe.

const (
	initialBucketBits = 6
	// A subtable doubles when its population exceeds loadFactor times the
	// bucket count.
	loadFactor = 4
	// A subtable also doubles early when a makeNode probe walks a chain of
	// at least longChain nodes while the table is at least half full: the
	// chain-length tail degrades lookups well before the average load
	// does, so growth is triggered before the tail forms rather than
	// after.
	longChain = 8
	// An allocation that finds the arena full collects garbage instead of
	// growing the arena once dead nodes exceed gcFraction of it.
	gcFraction = 0.25
)

func newSubtable() subtable {
	n := 1 << initialBucketBits
	st := subtable{buckets: make([]int32, n), mask: uint32(n - 1)}
	for i := range st.buckets {
		st.buckets[i] = nilIndex
	}
	return st
}

// hash2 mixes a node's two children into a bucket index. The level is not
// an input: a subtable holds a single level, and without it a node whose
// level changes but whose children do not keeps its bucket, which is what
// lets an adjacent swap relabel most nodes in place (swapInPlace).
func hash2(hi, lo Ref) uint32 {
	h := uint64(hi)*0xbf58476d1ce4e5b9 + uint64(lo)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// makeNode returns the canonical node (level, hi, lo), creating it if
// needed. It implements the two ROBDD reduction rules and the
// complement-arc normalization (the then edge is never complemented).
//
// Contract: hi and lo must be alive (the caller owns references on them, or
// they are permanent). The returned Ref carries one reference owned by the
// caller.
func (m *Manager) makeNode(level int32, hi, lo Ref) Ref {
	if hi == lo {
		return m.Ref(hi)
	}
	// Normalize: the then edge must be regular.
	complement := hi.IsComplement()
	if complement {
		hi ^= 1
		lo ^= 1
	}
	m.stats.UniqueLookups++
	st := &m.subtables[level]
	b := hash2(hi, lo) & st.mask
	chain := 0
	for idx := st.buckets[b]; idx != nilIndex; idx = m.nodes[idx].next {
		chain++
		n := &m.nodes[idx]
		if n.hi == hi && n.lo == lo {
			m.stats.UniqueHits++
			return m.Ref(makeRef(idx, complement))
		}
	}
	idx := m.allocNode() // may GC; hi and lo are protected by the caller
	st = &m.subtables[level]
	b = hash2(hi, lo) & st.mask
	n := &m.nodes[idx]
	n.level = level
	n.hi = hi
	n.lo = lo
	n.ref = 1 // the caller's reference
	n.next = st.buckets[b]
	st.buckets[b] = idx
	st.count++
	m.liveCount++
	if m.liveCount > m.stats.PeakLive {
		m.stats.PeakLive = m.liveCount
	}
	// The new live node holds references on its children.
	m.refChild(hi)
	m.refChild(lo)
	if st.count > loadFactor*len(st.buckets) ||
		(chain >= longChain && 2*st.count > len(st.buckets)) {
		m.stats.UniqueGrows++
		m.growSubtable(st)
	}
	return makeRef(idx, complement)
}

// refAlive reports whether f's arena slot currently holds a live node.
// Freed slots are identified by the level -1 stamp set when a node goes on
// the free list. This is the cheap liveness check behind the computed
// cache's selective invalidation (cacheSweepDead).
func (m *Manager) refAlive(f Ref) bool {
	idx := f.index()
	if int64(idx) >= int64(len(m.nodes)) {
		return false
	}
	n := &m.nodes[idx]
	return n.level >= 0 && n.ref != 0
}

// refChild adds the reference a newly created (or revived) parent holds on
// child. The child is known to be alive.
func (m *Manager) refChild(child Ref) {
	n := &m.nodes[child.index()]
	if n.ref != refSaturated {
		n.ref++
	}
}

// allocNode returns a fresh arena slot, reusing the free list when possible
// and garbage collecting under pressure. GC is only attempted when the
// arena would have to grow, so cache locality is preserved between
// collections.
func (m *Manager) allocNode() int32 {
	m.checkLimits()
	if m.free != nilIndex {
		idx := m.free
		m.free = m.nodes[idx].next
		return idx
	}
	if m.nodesUsed < int64(len(m.nodes)) {
		idx := int32(m.nodesUsed)
		m.nodesUsed++
		return idx
	}
	if !m.noGC &&
		m.deadCount > 2048 && float64(m.deadCount) > gcFraction*float64(len(m.nodes)) {
		m.gc(true, false)
		if m.free != nilIndex {
			idx := m.free
			m.free = m.nodes[idx].next
			return idx
		}
	}
	m.growArena()
	idx := int32(m.nodesUsed)
	m.nodesUsed++
	return idx
}

// growArena doubles the node arena. The slice header swap invalidates every
// *node pointer into the old backing array.
func (m *Manager) growArena() {
	grown := make([]node, 2*len(m.nodes))
	copy(grown, m.nodes)
	m.nodes = grown
}

// growSubtable doubles a subtable's bucket array and rehashes its chains.
// Stats are the caller's job.
func (m *Manager) growSubtable(st *subtable) {
	nb := len(st.buckets) * 2
	buckets := make([]int32, nb)
	for i := range buckets {
		buckets[i] = nilIndex
	}
	mask := uint32(nb - 1)
	for _, head := range st.buckets {
		for idx := head; idx != nilIndex; {
			next := m.nodes[idx].next
			n := &m.nodes[idx]
			b := hash2(n.hi, n.lo) & mask
			n.next = buckets[b]
			buckets[b] = idx
			idx = next
		}
	}
	st.buckets = buckets
	st.mask = mask
}

// GarbageCollect removes all dead nodes from the unique table, returns them
// to the free list, and selectively invalidates the computed cache: only
// entries that mention a reclaimed node are dropped, the rest stay valid.
// Refs to live nodes are unaffected. It returns the number of nodes
// reclaimed.
func (m *Manager) GarbageCollect() int { return m.gc(true, false) }

// gc is GarbageCollect with control over the cache sweep. Reordering
// passes sweepCache=false: it invalidates the whole cache afterwards with
// a generation bump, so walking it entry by entry would be wasted work.
//
// A stoppable sweep also stops between subtables once the enclosing
// Run's context has ended, since a sweep of a large arena can outlast the
// deadline by far; the dead nodes it leaves stay counted in deadCount and
// go to the next collection. The sweep runs top-down, so every node it
// frees lies above every dead node it leaves, and no chained node points
// at a freed slot. No swap may follow a cut sweep: a swap frees the dead
// nodes of its two levels, and a dead parent left above them would point
// at a freed slot.
func (m *Manager) gc(sweepCache, stoppable bool) int {
	if m.deadCount == 0 {
		return 0
	}
	start := time.Now()
	collected := 0
	for lev := range m.subtables {
		st := &m.subtables[lev]
		for b, head := range st.buckets {
			var keep int32 = nilIndex
			for idx := head; idx != nilIndex; {
				next := m.nodes[idx].next
				if m.nodes[idx].ref == 0 {
					m.nodes[idx].next = m.free
					m.nodes[idx].level = -1
					m.free = idx
					st.count--
					collected++
				} else {
					m.nodes[idx].next = keep
					keep = idx
				}
				idx = next
			}
			st.buckets[b] = keep
		}
		if stoppable && m.stopRequested() {
			break
		}
	}
	m.deadCount -= collected
	if sweepCache {
		m.cacheSweepDead()
	}
	pause := time.Since(start)
	m.stats.GCs++
	m.stats.GCNodes += int64(collected)
	m.stats.GCTime += pause
	if m.observer != nil {
		m.observer.GC(collected, m.liveCount, pause)
	}
	return collected
}
