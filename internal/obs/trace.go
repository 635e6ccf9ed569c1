package obs

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Structured span tracer. Spans nest (a span begun while another is open
// becomes its child), carry wall-time and optional node-delta attribution,
// and are emitted as one JSON line each when they end. Instant events emit
// a line immediately and attach to the innermost open span.
//
// Every emission goes to the JSONL sink (when set) and to the flight
// recorder (when set); either alone activates the tracer. A disabled
// tracer costs one atomic load per call: Begin returns nil and the nil
// *Span methods are no-ops, so instrumented code needs no guards.
//
// A tracer belongs to a Sink (a cmd session's, for the cmd binaries), and
// library code reaches it through the manager it runs on
// (Of(m).Tracer()). Emissions are serialized with a mutex, so any number
// of goroutines may emit events. Span nesting, though, is tracked in one
// stack per tracer, so spans nest correctly only when one logical thread
// of work opens them: the caller of a manager's operations.

// Attr is one key/value attribute on a span or event.
type Attr struct {
	Key string
	Val any
}

// Int, I64, F64, Str, and Bool build attributes.
func Int(k string, v int) Attr           { return Attr{k, int64(v)} }
func I64(k string, v int64) Attr         { return Attr{k, v} }
func F64(k string, v float64) Attr       { return Attr{k, v} }
func Str(k, v string) Attr               { return Attr{k, v} }
func Bool(k string, v bool) Attr         { return Attr{k, v} }
func Dur(k string, v time.Duration) Attr { return Attr{k, v.Nanoseconds()} }

// Event is the JSONL record written for every span end and instant event.
type Event struct {
	TS     string         `json:"ts"`                    // RFC3339Nano wall time of emission
	V      int            `json:"v,omitempty"`           // schema version (TraceSchemaVersion)
	Kind   string         `json:"kind"`                  // "span" or "event"
	Name   string         `json:"name"`                  // dotted phase name, e.g. "reach.iteration"
	ID     uint64         `json:"id"`                    // unique per tracer
	Parent uint64         `json:"parent"`                // enclosing span id (0 = root)
	DurNS  int64          `json:"dur_ns"`                // span wall time; 0 for events
	Nodes0 int            `json:"nodes_start,omitempty"` // live nodes at span begin
	Nodes1 int            `json:"nodes_end,omitempty"`   // live nodes at span end
	Delta  int            `json:"nodes_delta,omitempty"` // Nodes1 - Nodes0
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Tracer emits spans and events. The zero value is a valid, disabled
// tracer.
type Tracer struct {
	active atomic.Bool

	mu     sync.Mutex
	sink   io.Writer
	flight *FlightRecorder
	stack  []openSpan // open spans, innermost last
	nextID uint64
	err    error // first sink write error (reported by Err)

	// LiveNodes, when set, is sampled at span begin and end to attribute
	// node growth to phases (typically Manager.NodeCount of the active
	// BDD manager). It runs under the tracer mutex.
	LiveNodes func() int
}

// NewTracer returns a tracer writing JSON lines to w (which may be nil for
// a flight-recorder-only tracer; see SetFlight).
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{}
	t.SetSink(w)
	return t
}

// SetSink installs (or, with nil, removes) the JSONL writer.
func (t *Tracer) SetSink(w io.Writer) {
	t.mu.Lock()
	t.sink = w
	t.active.Store(t.sink != nil || t.flight != nil)
	t.mu.Unlock()
}

// SetFlight installs (or, with nil, removes) the flight recorder that
// receives a copy of every emitted line.
func (t *Tracer) SetFlight(fr *FlightRecorder) {
	t.mu.Lock()
	t.flight = fr
	t.active.Store(t.sink != nil || t.flight != nil)
	t.mu.Unlock()
}

// Flight returns the attached flight recorder, if any.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flight
}

// Enabled reports whether emissions currently go anywhere. It is nil-safe
// and costs one atomic load, making it cheap enough to guard attribute
// computation in hot code.
func (t *Tracer) Enabled() bool {
	return t != nil && t.active.Load()
}

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// openSpan is one frame of the tracer's open-span stack. Keeping the name
// alongside the id lets crash paths (flight-recorder dumps on budget
// aborts) report *where* the program was — the span stack — even though
// open spans have not emitted their records yet.
type openSpan struct {
	id   uint64
	name string
}

// StackString returns the open-span stack, outermost first, joined by
// ">" (e.g. "reach.iteration>reach.image"). Empty when no span is open or
// the tracer is disabled. Nil-safe.
func (t *Tracer) StackString() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, f := range t.stack {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(f.name)
	}
	return b.String()
}

// Span is an open span. A nil *Span (returned by a disabled tracer) is
// valid and all its methods are no-ops.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	nodes0 int
	attrs  []Attr
}

// Begin opens a span as a child of the innermost open span. It returns nil
// when the tracer is disabled.
func (t *Tracer) Begin(name string, attrs ...Attr) *Span {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{t: t, id: t.nextID, name: name, start: time.Now(), attrs: attrs}
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1].id
	}
	if t.LiveNodes != nil {
		s.nodes0 = t.LiveNodes()
	}
	t.stack = append(t.stack, openSpan{id: s.id, name: name})
	t.mu.Unlock()
	return s
}

// End closes the span, appending attrs, and emits its JSON line. Nil-safe.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.t
	end := time.Now()
	t.mu.Lock()
	// Pop this span (and, defensively, anything opened after it that was
	// never closed — a panic unwound past those Ends).
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1].id == s.id {
			t.stack = t.stack[:n-1]
			break
		}
	}
	ev := Event{
		TS:     end.Format(time.RFC3339Nano),
		Kind:   "span",
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		DurNS:  end.Sub(s.start).Nanoseconds(),
		Attrs:  attrMap(append(s.attrs, attrs...)),
	}
	if t.LiveNodes != nil {
		ev.Nodes0 = s.nodes0
		ev.Nodes1 = t.LiveNodes()
		ev.Delta = ev.Nodes1 - ev.Nodes0
	}
	t.emitLocked(&ev)
	t.mu.Unlock()
}

// Event emits an instant event attached to the innermost open span.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.nextID++
	ev := Event{
		TS:    time.Now().Format(time.RFC3339Nano),
		Kind:  "event",
		Name:  name,
		ID:    t.nextID,
		Attrs: attrMap(attrs),
	}
	if n := len(t.stack); n > 0 {
		ev.Parent = t.stack[n-1].id
	}
	t.emitLocked(&ev)
	t.mu.Unlock()
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

func (t *Tracer) emitLocked(ev *Event) {
	ev.V = TraceSchemaVersion
	line, err := json.Marshal(ev)
	if err != nil { // attribute values are numbers/strings/bools; should not happen
		if t.err == nil {
			t.err = err
		}
		return
	}
	line = append(line, '\n')
	if t.flight != nil {
		t.flight.Record(line)
	}
	if t.sink != nil {
		if _, err := t.sink.Write(line); err != nil && t.err == nil {
			t.err = err
		}
	}
}
