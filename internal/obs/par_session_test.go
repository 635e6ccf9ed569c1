package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bddkit/internal/bdd"
)

// buildParWork drives enough parallel BDD work through m to populate the
// sampled telemetry and trigger at least one GC.
func buildParWork(m *bdd.Manager, bits int) {
	carry := bdd.Zero
	for i := 0; i < bits; i++ {
		a := m.IthVar(2 * i)
		b := m.IthVar(2*i + 1)
		ab := m.And(a, b)
		axb := m.Xor(a, b)
		ac := m.And(axb, carry)
		nc := m.Or(ab, ac)
		m.Deref(ab)
		m.Deref(axb)
		m.Deref(ac)
		if carry != bdd.Zero {
			m.Deref(carry)
		}
		carry = nc
	}
	m.Deref(carry)
	m.GarbageCollect()
}

// TestWatchdogFollowsObservedManager: the stall watchdog watches the
// manager a session observed last. The first Workers=2 manager finishes its
// work; the second, observed after it, wedges its write lease for 500 ms,
// twenty times the deadline, and must be reported.
func TestWatchdogFollowsObservedManager(t *testing.T) {
	s, err := Config{Trace: t.TempDir() + "/trace.jsonl", StallDeadline: 25 * time.Millisecond}.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	var ms [2]*bdd.Manager
	for i := range ms {
		mcfg := bdd.DefaultConfig()
		mcfg.Workers = 2
		mcfg.Observer = s.Observer()
		ms[i] = bdd.NewWithConfig(8, mcfg)
		s.ObserveManager(ms[i])
		buildParWork(ms[i], 4)
	}
	ms[1].Quiesce(func() { time.Sleep(500 * time.Millisecond) })
	if n := s.sink.stalls.Value(); n == 0 {
		t.Fatal("no stall report for the wedged second manager")
	}
}

// TestSessionParallelObservability is the end-to-end path of the parallel
// observability stack: a session with sampling, watchdog, and endpoint
// armed watches a 4-worker manager; a deliberately wedged write lease makes
// the watchdog fire; the /parallel endpoint serves live telemetry; and the
// trace file closes as valid schema v2 with bdd.stw, bdd.stall, and
// bdd.contention events in it.
func TestSessionParallelObservability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Trace:         dir + "/trace.jsonl",
		Addr:          "127.0.0.1:0",
		StallDeadline: 25 * time.Millisecond,
	}
	prev := bdd.ParSampling()
	s, err := cfg.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if got := bdd.ParSampling(); got != bdd.DefaultParSampleRate {
		t.Fatalf("session armed sampling rate %d, want %d", got, bdd.DefaultParSampleRate)
	}
	bdd.SetParSampling(1) // sample everything: the test wants populated histograms

	mcfg := bdd.DefaultConfig()
	mcfg.Workers = 4
	mcfg.Observer = s.Observer()
	m := bdd.NewWithConfig(32, mcfg)
	s.ObserveManager(m)
	buildParWork(m, 16)

	// Wedge the write lease long enough for the 25ms watchdog to fire.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Quiesce(func() { <-release })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sink.stalls.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	if s.sink.stalls.Value() == 0 {
		t.Fatal("watchdog never fired on a wedged write lease")
	}

	// The stall must be in the flight recorder (that is where a wedged
	// process gets debugged from).
	var flight bytes.Buffer
	if _, err := s.Flight.WriteTo(&flight); err != nil {
		t.Fatalf("flight: %v", err)
	}
	if !strings.Contains(flight.String(), "bdd.stall") {
		t.Errorf("flight recorder has no bdd.stall event:\n%s", flight.String())
	}

	// Live telemetry over HTTP.
	resp, err := http.Get("http://" + s.BoundAddr + "/parallel")
	if err != nil {
		t.Fatalf("GET /parallel: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/parallel = %d:\n%s", resp.StatusCode, body)
	}
	var par bdd.ParTelemetry
	if err := json.Unmarshal(body, &par); err != nil {
		t.Fatalf("/parallel not JSON: %v\n%s", err, body)
	}
	if par.Workers != 4 {
		t.Fatalf("/parallel = %s", body)
	}
	if par.UniqueWait.Count == 0 {
		t.Errorf("/parallel served empty unique-wait telemetry at sample rate 1")
	}
	if len(par.STW) == 0 {
		t.Errorf("/parallel served no STW breakdown after a GC")
	}

	// /metrics carries the STW counters.
	resp, err = http.Get("http://" + s.BoundAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"bdd_stw_total", "bdd_stall_reports_total", "bdd_workers 4"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	s.Close()
	if got := bdd.ParSampling(); got != prev {
		t.Errorf("Close left sampling rate %d, want %d as before Start", got, prev)
	}

	// The trace file must validate as schema v2 with the full parallel
	// vocabulary in it.
	data, err := os.ReadFile(cfg.Trace)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	sum, err := ValidateJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if sum.Version != TraceSchemaVersion {
		t.Errorf("trace version = %d, want %d", sum.Version, TraceSchemaVersion)
	}
	if sum.ByName["bdd.stw"] == 0 {
		t.Errorf("trace has no bdd.stw events: %+v", sum.ByName)
	}
	if sum.ByName["bdd.stall"] == 0 {
		t.Errorf("trace has no bdd.stall event: %+v", sum.ByName)
	}
	if sum.ByName["bdd.contention"] != 6 {
		t.Errorf("trace has %d bdd.contention events, want 6 subsystems", sum.ByName["bdd.contention"])
	}

	// And the analyzer must produce a non-degenerate Amdahl report from it.
	a, err := AnalyzeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("AnalyzeTrace: %v", err)
	}
	r := a.Amdahl()
	if r.SerialNS == 0 || r.Workers != 4 {
		t.Errorf("Amdahl from live trace = %+v, want STW time at 4 workers", r)
	}
}
