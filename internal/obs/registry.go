// Package obs is the unified observability layer: a metrics registry
// (counters, gauges, histograms with atomic fast paths), a structured span
// tracer writing JSON lines, a flight recorder keeping the most recent
// trace events for post-mortem dumps, and a live HTTP endpoint serving
// pprof and the registry in Prometheus text exposition.
//
// The package is engineered so that a fully disabled configuration (no
// -trace, no -metrics, no -obs) costs essentially nothing: tracer calls
// reduce to one atomic load, metric objects are plain atomics the hot
// paths never touch, and the registry only does work when a snapshot is
// requested.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with an atomic fast path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative only to correct over-counting; counters
// are reported as monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric with an atomic fast path.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax records n only if it exceeds the current value (high-water mark).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0
// and v == 1 lands in bucket 1). 48 buckets cover nanosecond durations up
// to ~3 days and node counts up to 2^47.
const histBuckets = 48

// Histogram accumulates a distribution in power-of-two buckets with an
// atomic fast path per observation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Non-positive values clamp to zero: they land
// in bucket 0 and contribute nothing to the sum, so a caller observing a
// clock that stepped backwards cannot corrupt the distribution.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistogramSnapshot summarizes a histogram at one point in time.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot summarizes the distribution. Quantiles are bucket upper bounds,
// so they are upper estimates with power-of-two resolution, clamped to the
// maximum actually observed: with few samples the quantile bucket is often
// the max's own bucket, whose upper bound can exceed every observation
// (one sample of value 5 lands in the 4..7 bucket and would otherwise
// report P95 = 8 — an impossible latency no one ever paid).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Value(),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	var cum int64
	q50, q90, q95, q99 := false, false, false, false
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		bound := int64(1) << uint(i)
		if i == 0 {
			bound = 0
		}
		if i == histBuckets-1 {
			// The last bucket absorbs everything beyond its nominal range,
			// so its only honest upper bound is the observed maximum — a
			// single observation of 2^55 must report P50 = 2^55, not 2^47.
			bound = s.Max
		}
		if bound > s.Max {
			bound = s.Max
		}
		if !q50 && float64(cum) >= 0.50*float64(s.Count) && s.Count > 0 {
			s.P50, q50 = bound, true
		}
		if !q90 && float64(cum) >= 0.90*float64(s.Count) && s.Count > 0 {
			s.P90, q90 = bound, true
		}
		if !q95 && float64(cum) >= 0.95*float64(s.Count) && s.Count > 0 {
			s.P95, q95 = bound, true
		}
		if !q99 && float64(cum) >= 0.99*float64(s.Count) && s.Count > 0 {
			s.P99, q99 = bound, true
		}
	}
	return s
}

// BucketCounts returns the per-bucket observation counts (not cumulative):
// slot 0 counts v <= 0, slot i counts 2^(i-1) <= v < 2^i. The Prometheus
// exposition writer turns these into cumulative le-buckets.
func (h *Histogram) BucketCounts() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Registry names and owns a set of metrics. Registration takes a lock;
// updates through the returned metric objects are lock-free. Metric names
// use snake_case with a subsystem prefix (see DESIGN.md "Observability"
// for the catalog).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	histos   map[string]*Histogram
	funcs    map[string]func() float64
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		histos:   make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
		help:     make(map[string]string),
	}
}

// SetHelp attaches a HELP string to a metric name for the Prometheus
// exposition writer. Metrics without help text get a generic line, so
// calling this is optional.
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histos[name]
	if !ok {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// GaugeFunc registers a computed gauge: fn is evaluated at snapshot time
// only, so publishing derived values (hit rates, live-node counts read off
// a manager) costs nothing on the hot path. Re-registering a name replaces
// the function.
//
// fn runs on whatever goroutine requests the snapshot; functions that read
// an actively mutating structure (a live BDD manager) return advisory
// values and must tolerate torn reads.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot evaluates every metric and returns a flat name → value map.
// Histograms contribute a HistogramSnapshot; everything else a number.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histos)+len(r.funcs))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.histos {
		out[n] = h.Snapshot()
	}
	for n, fn := range r.funcs {
		v := fn()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // snapshots must stay JSON-encodable and plottable
		}
		out[n] = v
	}
	return out
}
