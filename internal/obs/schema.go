package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// JSONL schema validation for trace files, shared by the obs tests and the
// obscheck tool behind `make obs-smoke`.

// TraceSchemaVersion is the version stamped into every emitted event's "v"
// field. History:
//
//	v1 (unversioned; "v" absent) — the original span/event record, no
//	     longer read.
//	v2 — adds the "v" field itself and the parallel-engine event
//	     vocabulary ("bdd.stw", "bdd.stall", "bdd.contention"), which
//	     went with that engine; readers pass those names unchecked.
//	v3 — adds the quality-of-result vocabulary: "quality.op", the
//	     operation-ledger record every top-level approximation,
//	     decomposition, and reach iteration emits (kind, op, op_id,
//	     input/result DAG sizes, minterm mass before/after and retained,
//	     densities, threshold, budget limit/live/headroom, attributed
//	     dur/gc cost, abort cause).
//
// Readers accept versions 2 up to their own: a line without "v" (v1) or
// from a future writer is rejected.
const TraceSchemaVersion = 3

// TraceSummary reports what a validated trace contains.
type TraceSummary struct {
	Lines   int            // total event lines
	Spans   int            // kind == "span"
	Events  int            // kind == "event"
	ByName  map[string]int // per-name emission counts
	Version int            // highest schema version seen
}

// ValidateJSONL reads a JSONL trace and verifies the schema of every line:
// valid JSON; ts parses as RFC3339Nano; kind is "span" or "event"; name is
// non-empty; ids are positive and unique; parents refer to already-seen
// ids (spans are emitted at End, so a parent precedes its children's End
// records only when it closed first — parents may therefore also appear
// later, and only self-parenting is rejected); spans carry a non-negative
// duration; "v" is at least 2 and at most TraceSchemaVersion. It
// returns a summary or the first violation, tagged with its line number.
func ValidateJSONL(r io.Reader) (TraceSummary, error) {
	sum := TraceSummary{ByName: make(map[string]int)}
	seen := make(map[uint64]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		sum.Lines++
		line := sc.Bytes()
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return sum, fmt.Errorf("line %d: invalid JSON: %v", sum.Lines, err)
		}
		if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
			return sum, fmt.Errorf("line %d: bad ts %q: %v", sum.Lines, ev.TS, err)
		}
		switch ev.Kind {
		case "span":
			sum.Spans++
			if ev.DurNS < 0 {
				return sum, fmt.Errorf("line %d: span %q has negative dur_ns %d", sum.Lines, ev.Name, ev.DurNS)
			}
		case "event":
			sum.Events++
		default:
			return sum, fmt.Errorf("line %d: unknown kind %q", sum.Lines, ev.Kind)
		}
		if ev.Name == "" {
			return sum, fmt.Errorf("line %d: empty name", sum.Lines)
		}
		if ev.ID == 0 {
			return sum, fmt.Errorf("line %d: missing id", sum.Lines)
		}
		if seen[ev.ID] {
			return sum, fmt.Errorf("line %d: duplicate id %d", sum.Lines, ev.ID)
		}
		if ev.Parent == ev.ID {
			return sum, fmt.Errorf("line %d: event %d is its own parent", sum.Lines, ev.ID)
		}
		if ev.V < 2 {
			return sum, fmt.Errorf("line %d: schema version %d: v1 traces (no \"v\") are not read", sum.Lines, ev.V)
		}
		if ev.V > TraceSchemaVersion {
			return sum, fmt.Errorf("line %d: schema version %d is newer than this reader (max %d)",
				sum.Lines, ev.V, TraceSchemaVersion)
		}
		if ev.V > sum.Version {
			sum.Version = ev.V
		}
		if err := validateKnownEvent(&ev); err != nil {
			return sum, fmt.Errorf("line %d: %v", sum.Lines, err)
		}
		seen[ev.ID] = true
		sum.ByName[ev.Name]++
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	return sum, nil
}

// validateKnownEvent applies per-name attribute checks to the v3 quality
// vocabulary. Unknown names pass — traces may carry domain-specific events
// the validator has never heard of.
func validateKnownEvent(ev *Event) error {
	num := func(key string) (float64, bool) {
		switch v := ev.Attrs[key].(type) {
		case float64:
			return v, true
		case int64:
			return float64(v), true
		case int:
			return float64(v), true
		}
		return 0, false
	}
	str := func(key string) string {
		s, _ := ev.Attrs[key].(string)
		return s
	}
	switch ev.Name {
	case "quality.op":
		if str("op_kind") == "" || str("op") == "" {
			return fmt.Errorf("quality.op event %d lacks op_kind/op attrs", ev.ID)
		}
		for _, key := range []string{"size_in", "size_out", "dur_ns"} {
			if v, ok := num(key); !ok || v < 0 {
				return fmt.Errorf("quality.op event %d has bad %s %v", ev.ID, key, ev.Attrs[key])
			}
		}
		// Mass retained is a ratio: 1 = lossless, < 1 under-approximation,
		// > 1 over-approximation. Negative mass is always a bug.
		if v, ok := num("mass_retained"); !ok || v < 0 {
			return fmt.Errorf("quality.op event %d has bad mass_retained %v", ev.ID, ev.Attrs["mass_retained"])
		}
	}
	return nil
}
