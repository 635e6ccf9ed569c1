package bdd

import (
	"fmt"
	"strings"
)

// This file exposes the memory-subsystem statistics behind the computed
// cache and the unique table. The raw counters live in Stats; CacheStats
// and UniqueStats package them (plus structural snapshots that require a
// walk, like the chain-length histogram) for reporting by cmd/bddlab,
// cmd/reach, and internal/bench.

// chainHistBuckets is the number of chain-length buckets reported by
// UniqueStats; the last bucket aggregates every longer chain.
const chainHistBuckets = 9

// CacheStats is a snapshot of the computed (operation) table.
type CacheStats struct {
	Entries    int    // current table size (total entries across all sets)
	Ways       int    // set associativity
	Bits       uint   // log2(Entries)
	MaxBits    uint   // adaptive-resize ceiling (log2 entries)
	Generation uint32 // current generation (bumped by each reordering)

	Lookups int64   // probes since manager creation
	Hits    int64   // hits since manager creation
	HitRate float64 // Hits / Lookups

	Inserts   int64 // insertions
	Evictions int64 // live entries displaced by in-set aging
	Resizes   int64 // adaptive doublings performed

	Sweeps   int64 // selective invalidation passes (one per GC)
	Survived int64 // entries preserved across all sweeps
	Dropped  int64 // entries dropped across all sweeps

	LastSweepSurvived int // entries preserved by the most recent sweep
	LastSweepDropped  int // entries dropped by the most recent sweep

	EpochHitRates []float64 // recent per-epoch hit rates, oldest first
}

// CacheStats returns a snapshot of the computed-table statistics.
func (m *Manager) CacheStats() CacheStats {
	c := &m.cache
	s := CacheStats{
		Entries:    1 << c.bits,
		Ways:       cacheWays,
		Bits:       c.bits,
		MaxBits:    c.maxBits,
		Generation: c.gen,

		Lookups: m.stats.CacheLookups,
		Hits:    m.stats.CacheHits,

		Inserts:   m.stats.CacheInserts,
		Evictions: m.stats.CacheEvictions,
		Resizes:   m.stats.CacheResizes,

		Sweeps:   m.stats.CacheSweeps,
		Survived: m.stats.CacheSurvived,
		Dropped:  m.stats.CacheDropped,

		LastSweepSurvived: c.lastSurvived,
		LastSweepDropped:  c.lastDropped,

		EpochHitRates: append([]float64(nil), c.epochRates...),
	}
	if s.Lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Lookups)
	}
	return s
}

// String formats the snapshot as a short multi-line report.
func (s CacheStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "computed cache: %d entries (%d-way, 2^%d, ceiling 2^%d), generation %d\n",
		s.Entries, s.Ways, s.Bits, s.MaxBits, s.Generation)
	fmt.Fprintf(&b, "  lookups %d, hits %d (%.1f%%), inserts %d, evictions %d, resizes %d\n",
		s.Lookups, s.Hits, 100*s.HitRate, s.Inserts, s.Evictions, s.Resizes)
	fmt.Fprintf(&b, "  GC sweeps %d: survived %d, dropped %d (last sweep %d/%d)",
		s.Sweeps, s.Survived, s.Dropped, s.LastSweepSurvived, s.LastSweepDropped)
	if len(s.EpochHitRates) > 0 {
		b.WriteString("\n  epoch hit rates:")
		for _, r := range s.EpochHitRates {
			fmt.Fprintf(&b, " %.0f%%", 100*r)
		}
	}
	return b.String()
}

// ArenaStats is a snapshot of node-arena occupancy: how much of the
// allocated slot capacity is live, dead (awaiting collection), or free.
type ArenaStats struct {
	Capacity int // allocated node slots (including the unused slot 0)
	Live     int // live nodes, including the terminal
	Dead     int // dead nodes awaiting collection
}

// Occupancy returns (Live+Dead)/Capacity, the fraction of arena slots in
// use — the gauge a long-running traversal watches to anticipate GC and
// arena growth.
func (s ArenaStats) Occupancy() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Live+s.Dead) / float64(s.Capacity)
}

// ArenaStats returns the arena-occupancy snapshot.
func (m *Manager) ArenaStats() ArenaStats {
	return ArenaStats{Capacity: len(m.nodes), Live: m.liveCount, Dead: m.deadCount}
}

// UniqueStats is a snapshot of the unique table across all levels,
// including the bucket-chain length distribution that the growth policy
// keeps short.
type UniqueStats struct {
	Subtables int // one per variable level
	Buckets   int // total buckets across all subtables
	Stored    int // nodes currently chained (live or dead)
	Live      int // live nodes (including the terminal)
	Dead      int // dead nodes awaiting collection

	Lookups int64 // makeNode probes
	Hits    int64 // probes that found an existing node
	Grows   int64 // subtable doublings

	MaxChain  int     // longest bucket chain found
	ChainHist []int64 // bucket count by chain length; last entry = longer
}

// LiveLevelCounts returns the number of live inner nodes at each level
// (index = level) by walking the arena — the manager-truth level widths
// that a structural profile over every live root must reproduce. Linear in
// the arena; intended for reporting and cross-checks, not hot paths.
func (m *Manager) LiveLevelCounts() []int {
	counts := make([]int, len(m.subtables))
	for idx := 1; idx < len(m.nodes); idx++ {
		n := &m.nodes[idx]
		if n.ref != 0 && n.level >= 0 && n.level != terminalLevel {
			counts[n.level]++
		}
	}
	return counts
}

// UniqueStats walks the unique table and returns a snapshot. The walk is
// linear in the number of buckets plus stored nodes; intended for
// reporting, not hot paths.
func (m *Manager) UniqueStats() UniqueStats {
	s := UniqueStats{
		Subtables: len(m.subtables),
		Live:      m.liveCount,
		Dead:      m.deadCount,
		Lookups:   m.stats.UniqueLookups,
		Hits:      m.stats.UniqueHits,
		Grows:     m.stats.UniqueGrows,
		ChainHist: make([]int64, chainHistBuckets),
	}
	for lev := range m.subtables {
		st := &m.subtables[lev]
		s.Buckets += len(st.buckets)
		s.Stored += st.count
		for _, head := range st.buckets {
			chain := 0
			for idx := head; idx != nilIndex; idx = m.nodes[idx].next {
				chain++
			}
			if chain > s.MaxChain {
				s.MaxChain = chain
			}
			bucket := chain
			if bucket >= chainHistBuckets {
				bucket = chainHistBuckets - 1
			}
			s.ChainHist[bucket]++
		}
	}
	return s
}

// String formats the snapshot as a short multi-line report.
func (s UniqueStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "unique table: %d subtables, %d buckets, %d stored (%d live, %d dead)\n",
		s.Subtables, s.Buckets, s.Stored, s.Live, s.Dead)
	fmt.Fprintf(&b, "  lookups %d, hits %d, grows %d, max chain %d\n",
		s.Lookups, s.Hits, s.Grows, s.MaxChain)
	b.WriteString("  chain lengths:")
	for i, n := range s.ChainHist {
		if i == len(s.ChainHist)-1 {
			fmt.Fprintf(&b, " %d+:%d", i, n)
		} else {
			fmt.Fprintf(&b, " %d:%d", i, n)
		}
	}
	return b.String()
}
