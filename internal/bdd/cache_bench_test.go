package bdd

import (
	"math/rand"
	"testing"
)

// BenchmarkCacheChurn exercises the computed table under the workload the
// selective GC sweep is designed for: a working set of conjunctions
// recomputed over and over while garbage collections fire between rounds.
// With wholesale invalidation every GC forced a full recomputation of the
// working set; with the selective sweep the surviving entries keep the
// recomputation rounds cheap.
func BenchmarkCacheChurn(b *testing.B) {
	const nVars = 24
	// A 512-slot arena starts the computed table at 1,024 entries, small
	// enough that aging and eviction matter.
	m := NewWithConfig(nVars, Config{InitialNodes: 512})
	rng := rand.New(rand.NewSource(7))

	// A pool of live random functions; the hot working set. Each is a
	// random expression over the variables (cheap to build, unlike a
	// minterm enumeration, and structurally diverse).
	pool := make([]Ref, 32)
	for i := range pool {
		pool[i] = randomExpr(m, rng, nVars, 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One round of pairwise conjunctions: mostly repeat work that the
		// cache should absorb, plus dead temporaries that pile up.
		for j := 0; j+1 < len(pool); j++ {
			r := m.And(pool[j], pool[j+1])
			m.Deref(r)
		}
		if i%8 == 7 {
			m.GarbageCollect()
		}
	}
	b.StopTimer()
	s := m.CacheStats()
	if s.Lookups > 0 {
		b.ReportMetric(100*float64(s.Hits)/float64(s.Lookups), "hit%")
	}
}

// randomExpr builds a random function by folding random literals into an
// accumulator with random connectives.
func randomExpr(m *Manager, rng *rand.Rand, nVars, steps int) Ref {
	acc := m.Ref(m.IthVar(rng.Intn(nVars)))
	for i := 0; i < steps; i++ {
		lit := m.IthVar(rng.Intn(nVars))
		if rng.Intn(2) == 0 {
			lit = lit.Complement()
		}
		var next Ref
		switch rng.Intn(3) {
		case 0:
			next = m.And(acc, lit)
		case 1:
			next = m.Or(acc, lit)
		default:
			next = m.Xor(acc, lit)
		}
		m.Deref(acc)
		acc = next
	}
	return acc
}

// BenchmarkUniqueTable stresses makeNode with fresh-node-heavy work: parity
// functions over rotating variable windows never repeat, so nearly every
// level-by-level construction probes and inserts into the unique table,
// measuring hash-chain behavior and the chain-aware growth policy.
func BenchmarkUniqueTable(b *testing.B) {
	const (
		nVars  = 64
		window = 20
	)
	m := New(nVars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// XOR chain over a rotating window, alternating polarity by round
		// so consecutive iterations build distinct node cohorts.
		start := i % (nVars - window)
		acc := m.Ref(Zero)
		if i&1 == 1 {
			acc = m.Ref(One)
		}
		for v := start; v < start+window; v++ {
			next := m.Xor(acc, m.IthVar(v))
			m.Deref(acc)
			acc = next
		}
		m.Deref(acc)
	}
	b.StopTimer()
	s := m.UniqueStats()
	if s.Lookups > 0 {
		b.ReportMetric(float64(s.MaxChain), "maxchain")
	}
}
