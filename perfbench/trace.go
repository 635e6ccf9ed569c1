package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// spanLog keeps the spans of a traced run in memory as obs.Event records,
// the schema obs.ValidateJSONL and obs.AnalyzeTrace read, until
// writeJSONL writes them out at exit. Unlike obs.Tracer it keeps no shared
// open-span stack: each span names its parent, so the service workload's
// two clients record concurrently without adopting each other's spans.
type spanLog struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	events []obs.Event
}

// span is one open span. A nil *span (from a nil log) is valid and its
// methods do nothing, so untraced passes run the same code.
type span struct {
	log    *spanLog
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []obs.Attr
}

// begin opens a span named name under parent (nil for a root span).
func (l *spanLog) begin(parent *span, name string, attrs ...obs.Attr) *span {
	if l == nil {
		return nil
	}
	s := &span{log: l, id: l.nextID.Add(1), name: name, start: time.Now(), attrs: attrs}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// child opens a span under s on s's log.
func (s *span) child(name string, attrs ...obs.Attr) *span {
	if s == nil {
		return nil
	}
	return s.log.begin(s, name, attrs...)
}

// end closes the span now.
func (s *span) end(attrs ...obs.Attr) { s.endAt(time.Now(), attrs...) }

// endAt closes the span with the given end time, so attributes computed
// after the measured call do not count toward its duration.
func (s *span) endAt(t time.Time, attrs ...obs.Attr) {
	if s == nil {
		return
	}
	ev := obs.Event{
		TS:     t.Format(time.RFC3339Nano),
		V:      obs.TraceSchemaVersion,
		Kind:   "span",
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		DurNS:  t.Sub(s.start).Nanoseconds(),
	}
	if all := append(s.attrs, attrs...); len(all) > 0 {
		ev.Attrs = make(map[string]any, len(all))
		for _, a := range all {
			ev.Attrs[a.Key] = a.Val
		}
	}
	s.log.mu.Lock()
	s.log.events = append(s.log.events, ev)
	s.log.mu.Unlock()
}

// event records an instant event, for values measured outside any span.
func (l *spanLog) event(name string, attrs ...obs.Attr) {
	if l == nil {
		return
	}
	ev := obs.Event{
		TS:   time.Now().Format(time.RFC3339Nano),
		V:    obs.TraceSchemaVersion,
		Kind: "event",
		Name: name,
		ID:   l.nextID.Add(1),
	}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			ev.Attrs[a.Key] = a.Val
		}
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// layerCall is one call the benchmark makes into a layer. Under a traced
// parent it records a span carrying the manager's Stats() delta across the
// call; under a nil parent it records nothing and reads no statistics.
type layerCall struct {
	s      *span
	m      *bdd.Manager
	before bdd.Stats
}

// beginCall opens a call on manager m (nil when the call creates its own
// manager, so there is no delta to take).
func beginCall(parent *span, name string, m *bdd.Manager, attrs ...obs.Attr) layerCall {
	if parent == nil {
		return layerCall{}
	}
	c := layerCall{m: m}
	if m != nil {
		c.before = m.Stats()
	}
	c.s = parent.child(name, attrs...)
	return c
}

// end closes the call; attrs are added to the span.
func (c layerCall) end(attrs ...obs.Attr) {
	if c.s == nil {
		return
	}
	t := time.Now()
	if c.m != nil {
		attrs = append(attrs, statsAttrs(c.before, c.m.Stats())...)
	}
	c.s.endAt(t, attrs...)
}

// statsAttrs turns a Stats() delta into span attributes. STWTime is left
// out on purpose: it adds lease wait to pause time and can exceed the
// wall time of the call it describes.
func statsAttrs(before, after bdd.Stats) []obs.Attr {
	return []obs.Attr{
		obs.I64("unique_lookups", after.UniqueLookups-before.UniqueLookups),
		obs.I64("unique_hits", after.UniqueHits-before.UniqueHits),
		obs.I64("cache_lookups", after.CacheLookups-before.CacheLookups),
		obs.I64("cache_hits", after.CacheHits-before.CacheHits),
		obs.I64("gc_count", after.GCs-before.GCs),
		obs.Dur("gc_ns", after.GCTime-before.GCTime),
		obs.I64("reorder_count", after.Reorderings-before.Reorderings),
		obs.Dur("reorder_ns", after.ReorderTime-before.ReorderTime),
		obs.Int("peak_live", after.PeakLive),
		obs.I64("tasks_stolen", after.TasksStolen-before.TasksStolen),
		obs.I64("tasks_local", after.TasksLocal-before.TasksLocal),
		obs.I64("stw_count", after.STWCount-before.STWCount),
	}
}

// writeJSONL writes every recorded span, one JSON line each.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.events {
		if err = enc.Encode(&l.events[i]); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// Root span names: every layer span sits under one of them.
const (
	setupSpan = "bench.setup"
	passSpan  = "bench.pass"
)

// layerMetrics computes every per-layer metric from the trace file at
// path: obs.ValidateJSONL accepts the file, obs.AnalyzeTrace supplies the
// per-name span times, and the counters are summed from the span
// attributes. Times and counts are per traced pass; setup-phase spans are
// per traced setup. out supplies the pass timings for the tracing
// overhead.
func layerMetrics(path string, out *outcome) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := obs.ValidateJSONL(f); err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	an, err := obs.AnalyzeTrace(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	events, err := readEvents(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}

	total := make(map[string]float64) // span name -> total seconds
	count := make(map[string]float64) // span name -> spans
	for _, r := range an.Rollups {
		if r.Kind == "span" {
			total[r.Name] = float64(r.Total) / 1e9
			count[r.Name] = float64(r.Count)
		}
	}
	perPass := func(x float64) float64 {
		if count[passSpan] == 0 {
			return 0
		}
		return x / count[passSpan]
	}
	// A set-up may be recorded as several root spans (the traversal sets up
	// each traversal just before it runs); their "setup" attribute names
	// the set-up they belong to.
	setups := make(map[float64]bool)
	for i := range events {
		if events[i].Name == setupSpan && events[i].Parent == 0 {
			setups[attrNum(&events[i], "setup")] = true
		}
	}
	perSetup := func(x float64) float64 {
		if len(setups) == 0 {
			return 0
		}
		return x / float64(len(setups))
	}

	// Attribute sums over the layer spans of the pass phase; the peak is a
	// maximum over every span.
	root := rootNames(events)
	sum := make(map[string]float64)
	var peakLive, peakProduct float64
	for i := range events {
		ev := &events[i]
		peakLive = max(peakLive, attrNum(ev, "peak_live"))
		if root[ev.ID] != passSpan {
			continue
		}
		for _, k := range []string{"unique_lookups", "unique_hits", "cache_lookups", "cache_hits",
			"gc_count", "gc_ns", "reorder_count", "reorder_ns", "tasks_stolen", "tasks_local",
			"stw_count", "image_ns", "subset_ns", "closure_ns", "iterations", "and_exists", "samples"} {
			sum[k] += attrNum(ev, k)
		}
		peakProduct = max(peakProduct, attrNum(ev, "peak_product"))
	}
	m := map[string]float64{
		"circuit.compile_s":   perSetup(total["circuit.compile"]),
		"bdd.unique_lookups":  perPass(sum["unique_lookups"]),
		"bdd.unique_hit_rate": ratio(sum["unique_hits"], sum["unique_lookups"]),
		"bdd.cache_lookups":   perPass(sum["cache_lookups"]),
		"bdd.cache_hit_rate":  ratio(sum["cache_hits"], sum["cache_lookups"]),
		"bdd.gc_count":        perPass(sum["gc_count"]),
		"bdd.gc_s":            perPass(sum["gc_ns"] / 1e9),
		"bdd.reorder_count":   perPass(sum["reorder_count"]),
		"bdd.reorder_s":       perPass(sum["reorder_ns"] / 1e9),
		"bdd.peak_live_nodes": peakLive,
		"bdd.tasks_stolen":    perPass(sum["tasks_stolen"]),
		"bdd.tasks_local":     perPass(sum["tasks_local"]),
		"bdd.stw_count":       perPass(sum["stw_count"]),
		"reach.tr_build_s":    perSetup(total["reach.tr_build"]),
		"reach.image_s":       perPass(sum["image_ns"] / 1e9),
		"reach.subset_s":      perPass(sum["subset_ns"] / 1e9),
		"reach.closure_s":     perPass(sum["closure_ns"] / 1e9),
		"reach.iterations":    perPass(sum["iterations"]),
		"reach.and_exists":    perPass(sum["and_exists"]),
		"reach.peak_product":  peakProduct,
		"count.samples":       perPass(sum["samples"]),
	}
	// Per-call spans, named after the metric they feed.
	for _, s := range perLayer {
		if _, done := m[s.name]; done || s.unit != "s" {
			continue
		}
		m[s.name] = perPass(total[strings.TrimSuffix(s.name, "_s")])
	}
	serviceLayerMetrics(events, m)
	m["trace.overhead_frac"] = tracingOverhead(out)
	return m, nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracingOverhead compares the traced passes of a run with its untraced
// ones, or its traced requests with its untraced ones when the workload
// has no passes: median traced over median untraced, minus one.
func tracingOverhead(out *outcome) float64 {
	if len(out.tracedPasses) > 0 && len(out.passes) > 0 {
		return median(out.tracedPasses)/median(measured(out.passes)) - 1
	}
	if len(out.tracedReqs) > 0 && len(out.requests) > 0 {
		return median(out.tracedReqs)/median(measured(out.requests)) - 1
	}
	return 0
}

func readEvents(r io.Reader) ([]obs.Event, error) {
	var events []obs.Event
	dec := json.NewDecoder(r)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
}

// rootNames maps every span id to the name of its root span.
func rootNames(events []obs.Event) map[uint64]string {
	parent := make(map[uint64]uint64, len(events))
	name := make(map[uint64]string, len(events))
	for _, ev := range events {
		parent[ev.ID] = ev.Parent
		name[ev.ID] = ev.Name
	}
	root := make(map[uint64]string, len(events))
	for _, ev := range events {
		id := ev.ID
		for parent[id] != 0 {
			id = parent[id]
		}
		root[ev.ID] = name[id]
	}
	return root
}

// attrNum reads a numeric attribute (JSON numbers decode as float64).
func attrNum(ev *obs.Event, key string) float64 {
	v, _ := ev.Attrs[key].(float64)
	return v
}
