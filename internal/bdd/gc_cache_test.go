package bdd

import (
	"math"
	"math/rand"
	"testing"
)

// TestGCSweepPreservesLiveEntries checks the selective invalidation
// contract: a garbage collection drops only computed-table entries that
// mention freed slots, so results whose operands and result all survive
// remain cached across the GC.
func TestGCSweepPreservesLiveEntries(t *testing.T) {
	const nVars = 12
	m := New(nVars)
	rng := rand.New(rand.NewSource(42))

	// Live results: conjunction pairs kept referenced through the GC.
	live := make([]Ref, 0, 8)
	operands := make([]Ref, 0, 16)
	for i := 0; i < 8; i++ {
		f := randomOnSet(m, rng, nVars, 0.4)
		g := randomOnSet(m, rng, nVars, 0.4)
		live = append(live, m.And(f, g))
		operands = append(operands, f, g)
	}
	// Dead clutter: results dropped before the GC, whose nodes the
	// collection will free (and whose cache entries must go with them).
	for i := 0; i < 8; i++ {
		f := randomOnSet(m, rng, nVars, 0.3)
		g := randomOnSet(m, rng, nVars, 0.3)
		m.Deref(m.Xor(f, g))
		m.Deref(f)
		m.Deref(g)
	}

	m.GarbageCollect()
	s := m.CacheStats()
	if s.Sweeps == 0 {
		t.Fatalf("GC did not run a selective cache sweep: %+v", s)
	}
	if s.LastSweepSurvived == 0 {
		t.Fatalf("no cache entries survived the GC sweep (wholesale invalidation?): %+v", s)
	}
	if s.LastSweepDropped == 0 {
		t.Fatalf("no cache entries were dropped despite dead operands: %+v", s)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck after GC sweep: %v", err)
	}

	// The surviving entries must still denote the same functions: repeating
	// the live conjunctions yields the identical Refs.
	for i := range live {
		r := m.And(operands[2*i], operands[2*i+1])
		if r != live[i] {
			t.Fatalf("conjunction %d changed across GC: got %v want %v", i, r, live[i])
		}
		m.Deref(r)
	}
}

// TestCacheHitRevivesDeadResult pins the dead-but-revivable contract: a
// computed-table hit may return a Ref whose nodes are dead (refcount zero),
// and the operation wrappers must revive it into a valid caller-owned
// reference.
func TestCacheHitRevivesDeadResult(t *testing.T) {
	const nVars = 10
	m := New(nVars)
	rng := rand.New(rand.NewSource(7))
	f := randomOnSet(m, rng, nVars, 0.5)
	g := randomOnSet(m, rng, nVars, 0.5)

	r1 := m.And(f, g)
	tt := truthTable(m, r1, nVars)
	m.Deref(r1) // r1's nodes are now dead but still cached

	// No GC has run, so the recomputation must hit the cache, revive the
	// dead nodes, and hand back the same canonical Ref.
	before := m.Stats().CacheHits
	r2 := m.And(f, g)
	if r2 != r1 {
		t.Fatalf("recomputation returned %v, want revived %v", r2, r1)
	}
	if m.Stats().CacheHits == before {
		t.Fatalf("recomputation missed the cache")
	}
	tt2 := truthTable(m, r2, nVars)
	for i, want := range tt {
		if tt2[i] != want {
			t.Fatalf("revived result differs at minterm %d", i)
		}
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck after revival: %v", err)
	}
}

// TestReorderInvalidatesByGeneration checks that reordering invalidates the
// computed table through a generation bump — entries inserted before the
// reorder become invisible — and that the bump is counted.
func TestReorderInvalidatesByGeneration(t *testing.T) {
	const nVars = 8
	m := New(nVars)
	rng := rand.New(rand.NewSource(11))
	fns := make([]Ref, 6)
	for i := range fns {
		fns[i] = randomOnSet(m, rng, nVars, 0.5)
	}

	op := m.CacheOp()
	key := m.IthVar(0)
	m.CacheInsert(op, key, 0, 0, m.IthVar(1))
	if _, ok := m.CacheLookup(op, key, 0, 0); !ok {
		t.Fatalf("freshly inserted entry not found")
	}

	genBefore := m.CacheStats().Generation
	bumpsBefore := m.Stats().CacheGenerations
	m.Reorder(ReorderSift, SiftConfig{})
	if g := m.CacheStats().Generation; g == genBefore {
		t.Fatalf("reordering did not bump the cache generation (still %d)", g)
	}
	if b := m.Stats().CacheGenerations; b != bumpsBefore+1 {
		t.Fatalf("CacheGenerations = %d, want %d", b, bumpsBefore+1)
	}
	if _, ok := m.CacheLookup(op, key, 0, 0); ok {
		t.Fatalf("pre-reorder cache entry still visible after generation bump")
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck after reorder: %v", err)
	}
	for _, f := range fns {
		m.Deref(f)
	}
}

// TestAdaptiveCacheResize drives the cache with a hot working set plus cold
// insert traffic so a resize epoch sustains a high hit rate under heavy
// insertion, and checks that the table starts at cacheStartPerSlot entries
// per arena slot, doubles up to (and not beyond) its ceiling of
// cacheMaxPerSlot entries per slot, and grows again once the arena does.
func TestAdaptiveCacheResize(t *testing.T) {
	const slots = 128
	m := NewWithConfig(4, Config{InitialNodes: slots})

	start := m.CacheStats()
	if start.Entries != cacheStartPerSlot*slots {
		t.Fatalf("initial cache size %d, want %d", start.Entries, cacheStartPerSlot*slots)
	}

	// Keys are projection-variable Refs (permanently live), so the pattern
	// drives only the cache, not allocation. Two hot probes per cold
	// insert+probe keeps the epoch hit rate around 2/3 while the insert
	// traffic exceeds a full table per epoch.
	op := m.CacheOp()
	hot := m.IthVar(0)
	m.CacheInsert(op, hot, 0, 0, hot)
	res := m.IthVar(1)
	drive := func(from, to uint32) {
		for i := from; i < to; i++ {
			m.CacheLookup(op, hot, 0, 0)
			m.CacheLookup(op, hot, 0, 0)
			cold := Ref(i << 8) // distinct keys, never repeated
			m.CacheLookup(op, cold, cold, 0)
			m.CacheInsert(op, cold, cold, 0, res)
		}
	}
	atCeiling := func(when string) CacheStats {
		s := m.CacheStats()
		ceiling := cacheMaxPerSlot * m.ArenaStats().Capacity
		if s.Entries != ceiling || s.Bits != s.MaxBits {
			t.Fatalf("%s: cache stopped at %d entries (2^%d, reported ceiling 2^%d), want the ceiling of %d entries for a %d-slot arena",
				when, s.Entries, s.Bits, s.MaxBits, ceiling, m.ArenaStats().Capacity)
		}
		if _, ok := m.CacheLookup(op, hot, 0, 0); !ok {
			t.Fatalf("%s: hot entry lost across resizes", when)
		}
		return s
	}
	drive(1, 1<<16)
	s := atCeiling("small arena")
	if s.Resizes == 0 || s.Entries <= start.Entries {
		t.Fatalf("cache did not grow: %d -> %d entries in %d resizes", start.Entries, s.Entries, s.Resizes)
	}

	// Variables past the arena's capacity make it double, which lifts the
	// ceiling: the same traffic grows the table to the new one.
	for m.ArenaStats().Capacity == slots {
		m.AddVar()
	}
	drive(1<<16, 1<<17)
	if grown := atCeiling("doubled arena"); grown.Entries != 2*s.Entries {
		t.Fatalf("doubled arena: cache has %d entries, want %d", grown.Entries, 2*s.Entries)
	}
}

// TestCacheOpOverflowPanics checks the code-space exhaustion contract.
func TestCacheOpOverflowPanics(t *testing.T) {
	m := New(1)
	m.userOp = math.MaxUint32 - opUser + 1 // next code would wrap
	defer func() {
		if recover() == nil {
			t.Fatalf("CacheOp did not panic on code-space exhaustion")
		}
	}()
	m.CacheOp()
}

// TestCacheResizeKeepsRehashLayout checks that doubling the chunked table
// in place leaves every entry where a rehash into an empty table of the new
// size puts it: the live entries of the current generation, in their old
// order within each set, and nothing else. The doublings cross the chunk
// size, so both the copy of a short table and the appending of chunks are
// covered.
func TestCacheResizeKeepsRehashLayout(t *testing.T) {
	// The arena starts the table at 2^(cacheChunkBits-2) entries.
	m := NewWithConfig(4, Config{InitialNodes: 1 << (cacheChunkBits - 3)})
	cc := &m.cache
	if cc.bits != cacheChunkBits-2 {
		t.Fatalf("table starts at 2^%d entries, want 2^%d", cc.bits, cacheChunkBits-2)
	}
	rng := rand.New(rand.NewSource(7))
	fill := func(k int) {
		for i := 0; i < k; i++ {
			r := func() Ref { return Ref(rng.Intn(1 << 20)) }
			m.cacheInsert(opAnd+uint32(rng.Intn(3)), r(), r(), r(), r())
		}
	}
	flat := func() []cacheEntry {
		var all []cacheEntry
		for _, ch := range cc.chunks {
			all = append(all, ch...)
		}
		return all
	}
	for cc.bits < cacheChunkBits+2 {
		// Entries of an older generation must not survive the resize.
		fill(1 << (cc.bits - 2))
		cc.invalidateAll()
		fill(1 << cc.bits)
		want := rehash(flat(), cc.bits+1, cc.gen)
		m.cacheResize()
		got := flat()
		if len(got) != len(want) || 1<<cc.bits != len(want) {
			t.Fatalf("table has %d entries (bits %d) after the resize, want %d", len(got), cc.bits, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bits %d: entry %d is %+v, a rehash puts %+v there", cc.bits, i, got[i], want[i])
			}
		}
	}
}

// rehash inserts the live entries of generation gen, in order, into an
// empty table of 1<<bits entries, each into the first free way of its set
// or over the set's oldest entry.
func rehash(old []cacheEntry, bits uint, gen uint32) []cacheEntry {
	table := make([]cacheEntry, 1<<bits)
	for i := range table {
		table[i].res = invalidRef
	}
	setMask := uint32(len(table)/cacheWays - 1)
	for _, e := range old {
		if e.res == invalidRef || e.gen != gen {
			continue
		}
		set := table[(cacheHash(e.op, e.a, e.b, e.c)&setMask)*cacheWays:][:cacheWays]
		var slot *cacheEntry
		for w := range set {
			if set[w].res == invalidRef {
				slot = &set[w]
				break
			}
			if slot == nil || set[w].age < slot.age {
				slot = &set[w]
			}
		}
		*slot = e
	}
	return table
}
