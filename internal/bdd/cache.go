package bdd

// computedCache is the operation (computed) table: a 4-way set-associative,
// lossy cache keyed by an operation code and up to three operand Refs,
// modeled on CUDD's adaptively sized cache.
//
// Three mechanisms keep the cache useful under memory pressure:
//
//   - Within a set, entries carry age bits (a last-touch tick); an insert
//     into a full set evicts the oldest entry instead of clobbering an
//     arbitrary one, so hot results survive hash neighbors.
//   - Entries are stamped with a generation number. Reordering, which
//     invalidates every cached result (node children are rewritten in
//     place), bumps the generation: an O(1) wholesale invalidation with no
//     walk over the table.
//   - Garbage collection invalidates selectively: one walk over the table
//     drops only the entries that mention a freed arena slot (see
//     Manager.cacheSweepDead); the typically large live fraction survives,
//     exactly when recomputing it would hurt most.
//
// The table is sized from the node arena, as CUDD bounds its cache by a
// multiple of its unique table. It starts at cacheStartPerSlot entries per
// arena slot. Per resize epoch (a fixed multiple of the table size in
// lookups) the hit rate is measured, and a table that is hitting well
// while still absorbing heavy insert traffic doubles, unless the doubled
// table would pass cacheMaxPerSlot entries per slot of the arena. A
// manager run under a node budget therefore has a table bounded by that
// budget too. The table is stored in chunks, and doubling appends as many
// chunks as it has and splits each set in place, so a resize leaves no
// garbage: a contiguous table would keep the old array reachable while it
// rehashes into one twice as large, and a Go collection marking at that
// moment counts both as live and sets its next heap goal from their sum.

import "fmt"

// Operation codes for the computed table. Distinct operations with the same
// operand tuple must use distinct codes.
const (
	opIte uint32 = iota + 1
	opAnd
	opXor
	opExists
	opForAll
	opAndExists
	opConstrain
	opRestrict
	opCompose
	opPermute
	opLeq
	opCofCube
	opSqueeze
	opUser // first code available to client packages (see CacheOp)
)

const (
	// cacheWays is the set associativity: entries per set.
	cacheWays = 4
	// minCacheBits keeps the table at least one full set.
	minCacheBits = 4
	// cacheEpochFactor: a resize epoch ends once the table has seen
	// cacheEpochFactor * size lookups since the previous epoch.
	cacheEpochFactor = 4
	// cacheResizeHitRate is the minimum per-epoch hit rate at which
	// doubling the table is considered worthwhile (CUDD's minHit).
	cacheResizeHitRate = 0.30
	// cacheStartPerSlot and cacheMaxPerSlot are the table's start and
	// ceiling in entries per arena slot, each rounded down to a power of
	// two.
	cacheStartPerSlot = 2
	cacheMaxPerSlot   = 8
	// cacheChunkBits sets the chunk size: the table is stored in chunks
	// of 1<<cacheChunkBits entries, or in one shorter chunk while it is
	// smaller than that.
	cacheChunkBits = 16
	// chunkSetBits is log2 of the number of sets per chunk.
	chunkSetBits = cacheChunkBits - 2 // cacheWays = 1<<2
)

type cacheEntry struct {
	a, b, c Ref
	res     Ref
	op      uint32
	gen     uint32 // generation stamp; older generations are invisible
	age     uint32 // last-touch tick; the smallest in a set is evicted
}

type computedCache struct {
	chunks  [][]cacheEntry // the table; cacheWays consecutive entries per set
	setMask uint32         // number of sets - 1
	bits    uint           // log2(number of entries)
	gen     uint32         // current generation
	tick    uint32         // age clock; wraps harmlessly (eviction quality only)

	// Resize-epoch bookkeeping: snapshots of the manager's cumulative
	// counters at the epoch and last-resize boundaries.
	epochLookups  int64
	epochHits     int64
	resizeInserts int64

	// Outcome of the most recent selective sweep (see cacheSweepDead).
	lastSurvived int
	lastDropped  int
}

// init allocates the starting table for an arena of the given number of
// slots.
func (c *computedCache) init(slots int) {
	c.bits = cacheBitsWithin(cacheStartPerSlot * slots)
	n := 1 << c.bits
	chunk := min(n, 1<<cacheChunkBits)
	c.chunks = make([][]cacheEntry, n/chunk)
	for i := range c.chunks {
		c.chunks[i] = make([]cacheEntry, chunk)
	}
	c.setMask = uint32(n/cacheWays - 1)
	c.clear()
}

// cacheBitsWithin returns log2 of the largest table of at most n entries,
// and never less than minCacheBits.
func cacheBitsWithin(n int) uint {
	b := uint(minCacheBits)
	for 2<<b <= n {
		b++
	}
	return b
}

// cacheMaxBits is the resize ceiling (log2 entries) at the current arena.
func (m *Manager) cacheMaxBits() uint {
	return cacheBitsWithin(cacheMaxPerSlot * len(m.nodes))
}

// set returns the entries of set s.
func (c *computedCache) set(s uint32) *[cacheWays]cacheEntry {
	i := (s & (1<<chunkSetBits - 1)) * cacheWays
	return (*[cacheWays]cacheEntry)(c.chunks[s>>chunkSetBits][i : i+cacheWays])
}

// clear erases every entry. Used at initialization and when the generation
// counter wraps; normal invalidation goes through the generation stamp.
func (c *computedCache) clear() {
	for _, ch := range c.chunks {
		for i := range ch {
			ch[i].res = invalidRef
		}
	}
}

// invalidateAll makes every current entry invisible in O(1) by starting a
// new generation. On the (astronomically rare) wraparound the table is
// scrubbed so stamps from the previous epoch of the counter cannot alias.
func (c *computedCache) invalidateAll() {
	c.gen++
	if c.gen == 0 {
		c.clear()
	}
}

func (c *computedCache) nextTick() uint32 {
	c.tick++
	return c.tick
}

func cacheHash(op uint32, a, b, cc Ref) uint32 {
	h := uint64(op)*0x2545f4914f6cdd1d + uint64(a)*0x9e3779b97f4a7c15 +
		uint64(b)*0xbf58476d1ce4e5b9 + uint64(cc)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return uint32(h)
}

// cacheLookup probes the cache; ok reports a hit. The result Ref may be
// dead and must be revived by the caller before any allocation.
func (m *Manager) cacheLookup(op uint32, a, b, c Ref) (Ref, bool) {
	m.stats.CacheLookups++
	cc := &m.cache
	set := cc.set(cacheHash(op, a, b, c) & cc.setMask)
	for i := range set {
		e := &set[i]
		if e.op == op && e.a == a && e.b == b && e.c == c &&
			e.gen == cc.gen && e.res != invalidRef {
			m.stats.CacheHits++
			e.age = cc.nextTick()
			return e.res, true
		}
	}
	return invalidRef, false
}

// cacheInsert records op(a,b,c) = res. Within the target set it overwrites
// a same-key entry if present, else fills a free (or stale-generation) way,
// else evicts the least recently touched entry.
func (m *Manager) cacheInsert(op uint32, a, b, c Ref, res Ref) {
	cc := &m.cache
	set := cc.set(cacheHash(op, a, b, c) & cc.setMask)
	var free, oldest *cacheEntry
	var match *cacheEntry
	for i := range set {
		e := &set[i]
		if e.res == invalidRef || e.gen != cc.gen {
			if free == nil {
				free = e
			}
			continue
		}
		if e.op == op && e.a == a && e.b == b && e.c == c {
			match = e
			break
		}
		if oldest == nil || e.age < oldest.age {
			oldest = e
		}
	}
	slot := match
	if slot == nil {
		slot = free
	}
	if slot == nil {
		slot = oldest
		m.stats.CacheEvictions++
	}
	*slot = cacheEntry{a: a, b: b, c: c, op: op, res: res, gen: cc.gen, age: cc.nextTick()}
	m.stats.CacheInserts++
	if m.stats.CacheLookups-cc.epochLookups >= int64(cacheEpochFactor)<<cc.bits {
		m.cacheEpoch()
	}
}

// cacheEpoch closes a resize epoch: it doubles the table when the epoch's
// hit rate clears cacheResizeHitRate, the insert traffic since the last
// resize has been at least a full table's worth (so a bigger table would
// actually absorb misses), and the arena-derived ceiling allows it.
func (m *Manager) cacheEpoch() {
	cc := &m.cache
	lookups := m.stats.CacheLookups - cc.epochLookups
	hits := m.stats.CacheHits - cc.epochHits
	rate := 0.0
	if lookups > 0 {
		rate = float64(hits) / float64(lookups)
	}
	inserts := m.stats.CacheInserts - cc.resizeInserts
	if rate >= cacheResizeHitRate && inserts >= int64(1)<<cc.bits && cc.bits < m.cacheMaxBits() {
		m.cacheResize()
	}
	cc.epochLookups = m.stats.CacheLookups
	cc.epochHits = m.stats.CacheHits
}

// cacheResize doubles the table. It appends as many chunks as the table
// has (a table shorter than one chunk is copied into a longer one instead)
// and splits every set s in place: the live entries of the current
// generation whose hash now selects set s+oldSets move there and the rest
// stay, each keeping its order, which is where a rehash into an empty
// table of the new size would put them.
func (m *Manager) cacheResize() {
	cc := &m.cache
	oldSets := cc.setMask + 1
	cc.bits++
	n := 1 << cc.bits
	if n <= 1<<cacheChunkBits {
		grown := make([]cacheEntry, n)
		copy(grown, cc.chunks[0])
		cc.chunks[0] = grown
	} else {
		for k := len(cc.chunks); k > 0; k-- {
			cc.chunks = append(cc.chunks, make([]cacheEntry, 1<<cacheChunkBits))
		}
	}
	cc.setMask = uint32(n/cacheWays - 1)
	for s := uint32(0); s < oldSets; s++ {
		stay, moved := cc.set(s), cc.set(s+oldSets)
		old := *stay
		ns, nm := 0, 0
		for _, e := range old {
			if e.res == invalidRef || e.gen != cc.gen {
				continue
			}
			if cacheHash(e.op, e.a, e.b, e.c)&cc.setMask == s {
				stay[ns] = e
				ns++
			} else {
				moved[nm] = e
				nm++
			}
		}
		for ; ns < cacheWays; ns++ {
			stay[ns] = cacheEntry{res: invalidRef}
		}
		for ; nm < cacheWays; nm++ {
			moved[nm] = cacheEntry{res: invalidRef}
		}
	}
	cc.resizeInserts = m.stats.CacheInserts
	m.stats.CacheResizes++
}

// cacheSweepDead is the selective invalidation run after a garbage
// collection: one walk over the table drops exactly the entries that
// mention a freed arena slot (operands or result), because those slots may
// be recycled into unrelated functions. Entries whose nodes all survived
// the collection remain valid — their Refs still denote the same functions
// — and are preserved, so a GC no longer costs the entire computed table.
func (m *Manager) cacheSweepDead() {
	cc := &m.cache
	survived, dropped := 0, 0
	for _, ch := range cc.chunks {
		for i := range ch {
			e := &ch[i]
			if e.res == invalidRef {
				continue
			}
			if e.gen != cc.gen {
				// Stale generation: already invisible; scrub it so later
				// sweeps and the debug checker skip it cheaply.
				e.res = invalidRef
				continue
			}
			if m.refAlive(e.a) && m.refAlive(e.b) && m.refAlive(e.c) && m.refAlive(e.res) {
				survived++
			} else {
				e.res = invalidRef
				dropped++
			}
		}
	}
	cc.lastSurvived = survived
	cc.lastDropped = dropped
	m.stats.CacheSweeps++
	m.stats.CacheSurvived += int64(survived)
	m.stats.CacheDropped += int64(dropped)
}

// checkCache verifies the cache invariant used by DebugCheck: no visible
// entry may mention a freed arena slot.
func (m *Manager) checkCache() error {
	cc := &m.cache
	for k, ch := range cc.chunks {
		for i := range ch {
			e := &ch[i]
			if e.res == invalidRef || e.gen != cc.gen {
				continue
			}
			for _, f := range [4]Ref{e.a, e.b, e.c, e.res} {
				idx := f.index()
				if int(idx) >= len(m.nodes) || m.nodes[idx].level < 0 {
					return fmt.Errorf("cache entry %d references freed node ref %d", k<<cacheChunkBits+i, f)
				}
			}
		}
	}
	return nil
}

// CacheOp returns a fresh operation code for use with CacheLookup and
// CacheInsert by client packages (e.g. the approximation and decomposition
// algorithms), so they can share the manager's computed table without
// colliding with the built-in operations or each other.
//
// Code-space contract: codes are never recycled. A Manager can hand out at
// most 2^32 - opUser codes over its lifetime; exceeding that would wrap
// client codes into the built-in operation space and silently corrupt
// results, so CacheOp panics instead. Algorithms that need a private memo
// table per invocation (the intended pattern: results become invisible to
// later calls without any explicit invalidation) consume one or two codes
// per call, which allows billions of calls per manager — but callers that
// can reuse a code across calls should.
func (m *Manager) CacheOp() uint32 {
	code := opUser + m.userOp
	if code < opUser {
		panic("bdd: CacheOp code space exhausted (2^32 codes allocated); " +
			"reuse codes across calls or create a new Manager")
	}
	m.userOp++
	return code
}

// CacheLookup probes the computed table under a client operation code
// obtained from CacheOp. The returned Ref, on a hit, may be dead: revive it
// with Ref before creating any node.
func (m *Manager) CacheLookup(op uint32, a, b, c Ref) (Ref, bool) {
	return m.cacheLookup(op, a, b, c)
}

// CacheInsert records a client-computed result in the computed table.
func (m *Manager) CacheInsert(op uint32, a, b, c Ref, res Ref) {
	m.cacheInsert(op, a, b, c, res)
}

// ClearCache invalidates every computed-table entry with an O(1) generation
// bump. Benchmarks use it to measure cold-cache operation cost; client
// algorithms can use it to drop memoized results wholesale.
func (m *Manager) ClearCache() {
	m.cache.invalidateAll()
	m.stats.CacheGenerations++
}
