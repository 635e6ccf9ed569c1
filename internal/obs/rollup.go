package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Trace analytics: aggregate a JSONL span trace into per-name rollups, a
// per-iteration dominance summary, and an A/B diff between two runs. This
// is the engine behind cmd/traceview; the schema it consumes is the Event
// record of trace.go.

// Rollup is the aggregate of every span (or event) sharing one name.
type Rollup struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`  // "span" or "event"
	Count  int64  `json:"count"` // emissions
	Total  int64  `json:"total_ns"`
	Self   int64  `json:"self_ns"` // Total minus time spent in child spans
	P50    int64  `json:"p50_ns"`  // per-span duration quantiles
	P95    int64  `json:"p95_ns"`
	Max    int64  `json:"max_ns"`
	Nodes  int64  `json:"nodes_delta"` // summed node-delta attribution
	Events int64  `json:"-"`           // child instant events attached to these spans
}

// PhaseShare is one direct-child phase of an iteration, with its share of
// the iteration's wall time.
type PhaseShare struct {
	Name  string  `json:"name"`
	Total int64   `json:"total_ns"`
	Count int64   `json:"count"`
	Share float64 `json:"share"` // Total / iteration duration
}

// IterationSummary describes one traversal iteration span: its direct-child
// phases ranked by time, the dominant (critical-path) phase, and the size
// attributes the reach engine recorded on the span.
type IterationSummary struct {
	Iter     int          `json:"iter"`
	Mode     string       `json:"mode,omitempty"`
	Dur      int64        `json:"dur_ns"`
	SelfNS   int64        `json:"self_ns"`
	Phases   []PhaseShare `json:"phases"`
	Critical string       `json:"critical"` // dominant phase ("self" when untracked time wins)
	CritNS   int64        `json:"critical_ns"`
	Frontier int64        `json:"frontier_nodes,omitempty"`
	Fresh    int64        `json:"fresh_nodes,omitempty"`
	Reached  int64        `json:"reached_nodes,omitempty"`
}

// TraceAnalysis is the full aggregation of one trace file.
type TraceAnalysis struct {
	Lines      int                `json:"lines"`
	Spans      int                `json:"spans"`
	Events     int                `json:"events"`
	WallNS     int64              `json:"wall_ns"`              // summed duration of root spans
	Rollups    []Rollup           `json:"rollups"`              // sorted by Total descending
	Iterations []IterationSummary `json:"iterations,omitempty"` //
}

// iterationSpan is the dotted name whose spans anchor the per-iteration
// dominance summary (emitted by internal/reach around each image step).
const iterationSpan = "reach.iteration"

// AnalyzeTrace reads a JSONL trace and aggregates it. Malformed lines are
// rejected with their 1-based line number (same contract as ValidateJSONL);
// an empty reader yields an empty analysis, not an error.
func AnalyzeTrace(r io.Reader) (*TraceAnalysis, error) {
	a := &TraceAnalysis{}
	type spanAgg struct {
		kind   string
		count  int64
		total  int64
		child  int64 // time of direct child spans
		nodes  int64
		events int64
		max    int64
		hist   Histogram
	}
	aggs := make(map[string]*spanAgg)
	get := func(name, kind string) *spanAgg {
		s, ok := aggs[name]
		if !ok {
			s = &spanAgg{kind: kind}
			aggs[name] = s
		}
		return s
	}

	// The file is one pass, but parent attribution needs every span, so
	// events are retained (span records only) for the iteration summary.
	type spanRec struct {
		ev Event
	}
	var spans []spanRec
	childNS := make(map[uint64]int64)        // span id -> summed direct-child span time
	childPhases := make(map[uint64][]uint64) // span id -> direct-child span indices in spans

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		a.Lines++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("line %d: invalid JSON: %v", a.Lines, err)
		}
		switch ev.Kind {
		case "span":
			a.Spans++
			agg := get(ev.Name, "span")
			agg.count++
			agg.total += ev.DurNS
			agg.nodes += int64(ev.Delta)
			if ev.DurNS > agg.max {
				agg.max = ev.DurNS
			}
			agg.hist.Observe(ev.DurNS)
			if ev.Parent != 0 {
				childNS[ev.Parent] += ev.DurNS
				childPhases[ev.Parent] = append(childPhases[ev.Parent], uint64(len(spans)))
			}
			spans = append(spans, spanRec{ev: ev})
		case "event":
			a.Events++
			get(ev.Name, "event").count++
		default:
			return nil, fmt.Errorf("line %d: unknown kind %q", a.Lines, ev.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Self time and wall time.
	for _, s := range spans {
		agg := aggs[s.ev.Name]
		self := s.ev.DurNS - childNS[s.ev.ID]
		if self < 0 {
			self = 0 // clock skew between overlapping emissions
		}
		agg.child += s.ev.DurNS - self
		if s.ev.Parent == 0 {
			a.WallNS += s.ev.DurNS
		}
	}

	for name, agg := range aggs {
		snap := agg.hist.Snapshot()
		self := agg.total - agg.child
		if self < 0 {
			self = 0
		}
		a.Rollups = append(a.Rollups, Rollup{
			Name:  name,
			Kind:  agg.kind,
			Count: agg.count,
			Total: agg.total,
			Self:  self,
			P50:   snap.P50,
			P95:   snap.P95,
			Max:   agg.max,
			Nodes: agg.nodes,
		})
	}
	sort.Slice(a.Rollups, func(i, j int) bool {
		if a.Rollups[i].Total != a.Rollups[j].Total {
			return a.Rollups[i].Total > a.Rollups[j].Total
		}
		return a.Rollups[i].Name < a.Rollups[j].Name
	})

	// Per-iteration dominance summary.
	for _, s := range spans {
		if s.ev.Name != iterationSpan {
			continue
		}
		it := IterationSummary{
			Iter:     int(attrI64(s.ev.Attrs, "iter")),
			Mode:     attrStr(s.ev.Attrs, "mode"),
			Dur:      s.ev.DurNS,
			Frontier: attrI64(s.ev.Attrs, "frontier_nodes"),
			Fresh:    attrI64(s.ev.Attrs, "fresh_nodes"),
			Reached:  attrI64(s.ev.Attrs, "reached_nodes"),
		}
		byPhase := make(map[string]*PhaseShare)
		for _, ci := range childPhases[s.ev.ID] {
			c := spans[ci].ev
			p, ok := byPhase[c.Name]
			if !ok {
				p = &PhaseShare{Name: c.Name}
				byPhase[c.Name] = p
			}
			p.Count++
			p.Total += c.DurNS
		}
		it.SelfNS = it.Dur
		for _, p := range byPhase {
			if it.Dur > 0 {
				p.Share = float64(p.Total) / float64(it.Dur)
			}
			it.SelfNS -= p.Total
			it.Phases = append(it.Phases, *p)
		}
		if it.SelfNS < 0 {
			it.SelfNS = 0
		}
		sort.Slice(it.Phases, func(i, j int) bool { return it.Phases[i].Total > it.Phases[j].Total })
		it.Critical, it.CritNS = "self", it.SelfNS
		if len(it.Phases) > 0 && it.Phases[0].Total > it.SelfNS {
			it.Critical, it.CritNS = it.Phases[0].Name, it.Phases[0].Total
		}
		a.Iterations = append(a.Iterations, it)
	}
	sort.Slice(a.Iterations, func(i, j int) bool { return a.Iterations[i].Iter < a.Iterations[j].Iter })
	return a, nil
}

func attrI64(attrs map[string]any, key string) int64 {
	switch v := attrs[key].(type) {
	case float64:
		return int64(v)
	case int64:
		return v
	case int:
		return int64(v)
	}
	return 0
}

func attrStr(attrs map[string]any, key string) string {
	s, _ := attrs[key].(string)
	return s
}

// RollupDelta is one phase's signed change between two runs (B minus A).
type RollupDelta struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	CountA int64   `json:"count_a"`
	CountB int64   `json:"count_b"`
	TotalA int64   `json:"total_a_ns"`
	TotalB int64   `json:"total_b_ns"`
	Delta  int64   `json:"delta_ns"` // TotalB - TotalA
	Ratio  float64 `json:"ratio"`    // TotalB / TotalA (0 when A is empty)
}

// DiffRollups aligns two analyses by phase name and returns signed per-phase
// deltas, ordered by absolute time delta descending. Phases present in only
// one run appear with the other side zeroed.
func DiffRollups(a, b *TraceAnalysis) []RollupDelta {
	byName := make(map[string]*RollupDelta)
	for _, r := range a.Rollups {
		byName[r.Name] = &RollupDelta{Name: r.Name, Kind: r.Kind, CountA: r.Count, TotalA: r.Total}
	}
	for _, r := range b.Rollups {
		d, ok := byName[r.Name]
		if !ok {
			d = &RollupDelta{Name: r.Name, Kind: r.Kind}
			byName[r.Name] = d
		}
		d.CountB = r.Count
		d.TotalB = r.Total
	}
	out := make([]RollupDelta, 0, len(byName))
	for _, d := range byName {
		d.Delta = d.TotalB - d.TotalA
		if d.TotalA > 0 {
			d.Ratio = float64(d.TotalB) / float64(d.TotalA)
		}
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := abs64(out[i].Delta), abs64(out[j].Delta)
		if di != dj {
			return di > dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// WriteSummary renders an analysis as the traceview "summary" report:
// per-span rollups (count, total, self, p50, p95) followed by one critical-
// path line per traversal iteration.
func (a *TraceAnalysis) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%d lines: %d spans, %d events, wall %v\n",
		a.Lines, a.Spans, a.Events, time.Duration(a.WallNS).Round(time.Microsecond))
	fmt.Fprintf(w, "%-24s %8s %12s %12s %10s %10s %10s\n",
		"name", "count", "total", "self", "p50", "p95", "nodesΔ")
	for _, r := range a.Rollups {
		if r.Kind != "span" {
			continue
		}
		fmt.Fprintf(w, "%-24s %8d %12v %12v %10v %10v %10d\n",
			r.Name, r.Count,
			time.Duration(r.Total).Round(time.Microsecond),
			time.Duration(r.Self).Round(time.Microsecond),
			time.Duration(r.P50).Round(time.Microsecond),
			time.Duration(r.P95).Round(time.Microsecond),
			r.Nodes)
	}
	var events []Rollup
	for _, r := range a.Rollups {
		if r.Kind == "event" {
			events = append(events, r)
		}
	}
	if len(events) > 0 {
		fmt.Fprintf(w, "events:")
		for _, r := range events {
			fmt.Fprintf(w, " %s×%d", r.Name, r.Count)
		}
		fmt.Fprintln(w)
	}
	if len(a.Iterations) > 0 {
		fmt.Fprintln(w, "iterations (critical path):")
		// Long traversals (the 16-bit counter runs 65536 iterations) would
		// drown the report; show the head and tail around an elision line.
		const maxIterLines = 40
		elideFrom, elideTo := -1, -1
		if len(a.Iterations) > maxIterLines {
			elideFrom, elideTo = maxIterLines-10, len(a.Iterations)-10
		}
		for i, it := range a.Iterations {
			if i == elideFrom {
				fmt.Fprintf(w, "  ... %d iterations elided ...\n", elideTo-elideFrom)
			}
			if i >= elideFrom && i < elideTo {
				continue
			}
			share := 0.0
			if it.Dur > 0 {
				share = 100 * float64(it.CritNS) / float64(it.Dur)
			}
			fmt.Fprintf(w, "  iter %-3d %-4s %10v  critical %-16s %10v (%4.1f%%)",
				it.Iter, it.Mode, time.Duration(it.Dur).Round(time.Microsecond),
				it.Critical, time.Duration(it.CritNS).Round(time.Microsecond), share)
			if it.Reached > 0 {
				fmt.Fprintf(w, "  fresh %d reached %d", it.Fresh, it.Reached)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteDiff renders per-phase deltas as the traceview "diff" report. Signs
// follow B minus A: positive deltas mean run B spent more time. Phases
// present in only one trace are not an error: they diff against zero and
// the ratio column labels them "added" (B only) or "removed" (A only) —
// instrumented phases appear and disappear across PRs, and a diff that
// refuses to compare such runs is useless exactly when it matters.
func WriteDiff(w io.Writer, a, b *TraceAnalysis, deltas []RollupDelta) {
	fmt.Fprintf(w, "A: %d spans, wall %v   B: %d spans, wall %v   Δwall %+v\n",
		a.Spans, time.Duration(a.WallNS).Round(time.Microsecond),
		b.Spans, time.Duration(b.WallNS).Round(time.Microsecond),
		time.Duration(b.WallNS-a.WallNS).Round(time.Microsecond))
	fmt.Fprintf(w, "%-24s %8s %8s %12s %12s %12s %8s\n",
		"name", "countA", "countB", "totalA", "totalB", "delta", "ratio")
	for _, d := range deltas {
		ratio := "-"
		switch {
		case d.CountA == 0 && d.CountB > 0:
			ratio = "added"
		case d.CountB == 0 && d.CountA > 0:
			ratio = "removed"
		case d.Ratio > 0:
			ratio = fmt.Sprintf("%.2fx", d.Ratio)
		}
		fmt.Fprintf(w, "%-24s %8d %8d %12v %12v %+12v %8s\n",
			d.Name, d.CountA, d.CountB,
			time.Duration(d.TotalA).Round(time.Microsecond),
			time.Duration(d.TotalB).Round(time.Microsecond),
			time.Duration(d.Delta).Round(time.Microsecond),
			ratio)
	}
}
