package bdd

import (
	"math"
	"strings"
	"testing"
)

// Regression: CacheStats on a freshly created manager (zero computed-table
// lookups) must report a zero hit rate, not NaN.
func TestCacheStatsZeroLookupsNoNaN(t *testing.T) {
	m := New(4)
	s := m.CacheStats()
	if s.Lookups != 0 {
		t.Fatalf("fresh manager reports %d cache lookups, want 0", s.Lookups)
	}
	if math.IsNaN(s.HitRate) || math.IsInf(s.HitRate, 0) {
		t.Fatalf("hit rate on zero lookups = %v, want 0", s.HitRate)
	}
	if s.HitRate != 0 {
		t.Fatalf("hit rate on zero lookups = %v, want 0", s.HitRate)
	}
	if out := s.String(); strings.Contains(out, "NaN") {
		t.Fatalf("CacheStats.String contains NaN:\n%s", out)
	}
}

// PeakLive must track the high-water mark of live nodes, surviving both
// Deref and garbage collection.
func TestPeakLiveHighWaterMark(t *testing.T) {
	m := New(8)
	var f Ref = One
	for i := 0; i < 8; i++ {
		nf := m.And(f, m.IthVar(i))
		m.Deref(f)
		f = nf
	}
	peakAt := m.Stats().PeakLive
	if peakAt < m.NodeCount() {
		t.Fatalf("PeakLive %d < live %d", peakAt, m.NodeCount())
	}
	m.Deref(f)
	m.GarbageCollect()
	if got := m.Stats().PeakLive; got != peakAt {
		t.Fatalf("PeakLive changed across GC: %d -> %d", peakAt, got)
	}
}

// PeakITEDepth must grow with the depth of the ITE recursion.
func TestPeakITEDepth(t *testing.T) {
	m := New(12)
	// Three functions over interleaved variables so no terminal shortcut
	// fires and the ITE recursion descends through several levels.
	f := m.Xor(m.IthVar(0), m.IthVar(3))
	g := m.And(m.IthVar(1), m.IthVar(4))
	h := m.Or(m.IthVar(2), m.IthVar(5))
	r := m.ITE(f, g, h)
	if d := m.Stats().PeakITEDepth; d < 2 {
		t.Fatalf("PeakITEDepth = %d, want >= 2", d)
	}
	m.Deref(f)
	m.Deref(g)
	m.Deref(h)
	m.Deref(r)
}
