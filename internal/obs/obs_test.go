package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops_total") != c {
		t.Fatal("re-registering a counter must return the same object")
	}
	g := r.Gauge("live")
	g.Set(7)
	g.SetMax(3)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(10)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}

	h := r.Histogram("pause_ns")
	for _, v := range []int64{1, 2, 3, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max = %d, want %d", s.Max, 1<<20)
	}
	if s.Sum != 1+2+3+100+1000+1<<20 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.P50 <= 0 || s.P99 < s.P50 {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", s.P50, s.P99)
	}
}

func TestHistogramObserveExtremes(t *testing.T) {
	var h Histogram
	// Non-positive observations clamp to bucket 0 (no out-of-range index,
	// no negative mass in the sum); MaxInt64 saturates in the top bucket.
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.MinInt64)
	h.Observe(1)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum != 1 {
		t.Fatalf("sum = %d, want 1 (negatives must clamp to 0)", s.Sum)
	}
	if s.P50 != 0 {
		t.Fatalf("p50 = %d, want 0 (three of four observations are zero)", s.P50)
	}

	var big Histogram
	big.Observe(math.MaxInt64)
	bs := big.Snapshot()
	if bs.Max != math.MaxInt64 {
		t.Fatalf("max = %d, want MaxInt64", bs.Max)
	}
	if bs.P50 <= 0 || bs.P99 < bs.P95 || bs.P95 < bs.P90 {
		t.Fatalf("quantiles broken for MaxInt64: p50=%d p90=%d p95=%d p99=%d",
			bs.P50, bs.P90, bs.P95, bs.P99)
	}
}

func TestHistogramSnapshotExportsP95(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.P95 < s.P50 || s.P95 > s.Max*2 {
		t.Fatalf("p95 = %d out of range (p50=%d max=%d)", s.P95, s.P50, s.Max)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\"p95\"") {
		t.Fatalf("snapshot JSON missing p95: %s", b)
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	scrape, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f := scrape.Family("lat"); f == nil || f.Type != "histogram" {
		t.Fatalf("exposition lacks the lat histogram:\n%s", buf.String())
	}
	if v, ok := scrape.Value("lat_count"); !ok || v != 100 {
		t.Fatalf("lat_count = %v (present %v), want 100:\n%s", v, ok, buf.String())
	}
}

func TestRegistrySnapshotSanitizesGaugeFuncs(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("bad_rate", func() float64 { return math.NaN() })
	r.GaugeFunc("good", func() float64 { return 0.5 })
	snap := r.Snapshot()
	if v := snap["bad_rate"].(float64); v != 0 {
		t.Fatalf("NaN gauge func leaked %v into the snapshot", v)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	scrape, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scrape.Value("good"); !ok || v != 0.5 {
		t.Fatalf("exposition gauge good = %v (present %v), want 0.5:\n%s", v, ok, b.String())
	}
	if v, ok := scrape.Value("bad_rate"); !ok || v != 0 {
		t.Fatalf("NaN gauge func exposed as %v (present %v), want 0:\n%s", v, ok, b.String())
	}
}

func TestTracerSpansNestAndValidate(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	nodes := 10
	tr.LiveNodes = func() int { return nodes }

	root := tr.Begin("phase.outer", Str("what", "test"))
	nodes = 15
	child := tr.Begin("phase.inner", Int("k", 3))
	tr.Event("decision", Int("size", 42))
	nodes = 30
	child.End(Int("extra", 1))
	root.End()

	sum, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, buf.String())
	}
	if sum.Spans != 2 || sum.Events != 1 {
		t.Fatalf("got %d spans, %d events; want 2, 1", sum.Spans, sum.Events)
	}

	var evs []Event
	dec := json.NewDecoder(&buf)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// Emission order: event, inner span end, outer span end.
	if evs[0].Name != "decision" || evs[1].Name != "phase.inner" || evs[2].Name != "phase.outer" {
		t.Fatalf("unexpected order: %s, %s, %s", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	inner, outer := evs[1], evs[2]
	if inner.Parent != outer.ID {
		t.Fatalf("inner.parent = %d, want outer id %d", inner.Parent, outer.ID)
	}
	if evs[0].Parent != inner.ID {
		t.Fatalf("event parent = %d, want inner span id %d", evs[0].Parent, inner.ID)
	}
	if outer.Parent != 0 {
		t.Fatalf("outer span has parent %d, want 0", outer.Parent)
	}
	if inner.Nodes0 != 15 || inner.Nodes1 != 30 || inner.Delta != 15 {
		t.Fatalf("node attribution = %d/%d/%d, want 15/30/15", inner.Nodes0, inner.Nodes1, inner.Delta)
	}
	if got := inner.Attrs["k"].(float64); got != 3 {
		t.Fatalf("attr k = %v", inner.Attrs["k"])
	}
	if got := inner.Attrs["extra"].(float64); got != 1 {
		t.Fatalf("End attrs not merged: %v", inner.Attrs)
	}
}

func TestDisabledTracerIsSafeAndSilent(t *testing.T) {
	var tr *Tracer // nil tracer: the degenerate case instrumented code may hold
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin("x")
	sp.End() // must not panic
	tr = &Tracer{}
	if tr.Enabled() {
		t.Fatal("zero tracer reports enabled")
	}
	tr.Event("y", Int("a", 1))
	tr.Begin("z").End()
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record([]byte(fmt.Sprintf("{\"n\":%d}\n", i)))
	}
	if fr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", fr.Len())
	}
	if fr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", fr.Total())
	}
	var buf bytes.Buffer
	fr.Dump(&buf, "test")
	out := buf.String()
	for i := 6; i < 10; i++ {
		if !strings.Contains(out, fmt.Sprintf("{\"n\":%d}", i)) {
			t.Fatalf("dump missing event %d:\n%s", i, out)
		}
	}
	if strings.Contains(out, "{\"n\":5}") {
		t.Fatalf("dump kept an overwritten event:\n%s", out)
	}
	if !strings.Contains(out, "test (4 of 10 events retained)") {
		t.Fatalf("dump header wrong:\n%s", out)
	}
}

func TestTracerFlightOnlyMode(t *testing.T) {
	fr := NewFlightRecorder(8)
	tr := &Tracer{}
	tr.SetFlight(fr)
	if !tr.Enabled() {
		t.Fatal("flight-only tracer must be enabled")
	}
	tr.Begin("a").End()
	tr.Event("b")
	if fr.Len() != 2 {
		t.Fatalf("flight recorded %d events, want 2", fr.Len())
	}
	var buf bytes.Buffer
	fr.WriteTo(&buf)
	if _, err := ValidateJSONL(&buf); err != nil {
		t.Fatalf("flight contents do not validate: %v", err)
	}
}

func TestTracerConcurrentEmissions(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.Event("worker", Int("i", i), Int("j", j))
			}
		}(i)
	}
	wg.Wait()
	sum, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrent trace invalid: %v", err)
	}
	if sum.Events != 400 {
		t.Fatalf("got %d events, want 400", sum.Events)
	}
}

func TestSessionDisabledByDefault(t *testing.T) {
	var cfg Config
	s, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Tracer.Enabled() {
		t.Fatal("session with no flags armed the tracer")
	}
	if s.Flight != nil {
		t.Fatal("session with no flags armed the flight recorder")
	}
}

func TestSessionTraceAndEndpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Trace: dir + "/trace.jsonl", Addr: "127.0.0.1:0"}
	s, err := cfg.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.Registry.Counter("test_counter").Add(3)
	s.Tracer.Begin("unit.phase", Int("n", 1)).End()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + s.BoundAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "test_counter 3") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap = %d, want 200", code)
	}
	if _, body := get("/flight"); body != "" {
		if _, err := ValidateJSONL(strings.NewReader(body)); err != nil {
			t.Fatalf("/flight not valid JSONL: %v", err)
		}
	}
	s.Close()

	data, err := os.ReadFile(cfg.Trace)
	if err != nil {
		t.Fatalf("read trace file: %v", err)
	}
	sum, err := ValidateJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if sum.ByName["unit.phase"] != 1 {
		t.Fatalf("trace missing unit.phase span: %+v", sum.ByName)
	}
}
