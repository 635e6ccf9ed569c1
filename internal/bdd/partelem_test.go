package bdd

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// parTestObserver implements both Observer and ParObserver, recording every
// STW and stall notification for assertions.
type parTestObserver struct {
	mu     sync.Mutex
	stw    []string // causes, in order
	stalls []string // stall reports
	stuck  []time.Duration
	aborts int // budget-abort reports
}

func (o *parTestObserver) GC(reclaimed, live int, pause time.Duration) {}
func (o *parTestObserver) Reorder(before, after int, d time.Duration)  {}
func (o *parTestObserver) DebugFailure(err error)                      {}

func (o *parTestObserver) Abort(reason string) {
	o.mu.Lock()
	o.aborts++
	o.mu.Unlock()
}

func (o *parTestObserver) abortCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.aborts
}

func (o *parTestObserver) STW(cause string, workers int, wait, pause time.Duration) {
	o.mu.Lock()
	o.stw = append(o.stw, cause)
	o.mu.Unlock()
}

func (o *parTestObserver) Stall(report string, stuck time.Duration) {
	o.mu.Lock()
	o.stalls = append(o.stalls, report)
	o.stuck = append(o.stuck, stuck)
	o.mu.Unlock()
}

func (o *parTestObserver) stallCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.stalls)
}

func (o *parTestObserver) firstStall() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.stalls) == 0 {
		return ""
	}
	return o.stalls[0]
}

// newParObserved is newPar with o as the manager's observer.
func newParObserved(t *testing.T, vars, workers int, o Observer) *Manager {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Observer = o
	return NewWithConfig(vars, cfg)
}

func withSampling(t *testing.T, rate int) {
	t.Helper()
	prev := ParSampling()
	SetParSampling(rate)
	t.Cleanup(func() { SetParSampling(prev) })
}

func TestSetParSampling(t *testing.T) {
	withSampling(t, 0)
	if got := ParSampling(); got != 0 {
		t.Fatalf("ParSampling() = %d after disable, want 0", got)
	}
	SetParSampling(100) // rounds up to next power of two
	if got := ParSampling(); got != 128 {
		t.Fatalf("ParSampling() = %d, want 128", got)
	}
	SetParSampling(1)
	if got := ParSampling(); got != 1 {
		t.Fatalf("ParSampling() = %d, want 1", got)
	}
	SetParSampling(-5)
	if got := ParSampling(); got != 0 {
		t.Fatalf("ParSampling() = %d, want 0", got)
	}
}

func TestWaitHistQuantiles(t *testing.T) {
	var h waitHist
	for i := 0; i < 100; i++ {
		h.observe(100) // bucket for 100ns
	}
	h.observe(1 << 20) // one outlier ~1ms
	var buckets [waitHistBuckets]int64
	var ws WaitStats
	h.addTo(&buckets, &ws)
	if ws.Count != 101 {
		t.Fatalf("Count = %d, want 101", ws.Count)
	}
	if ws.MaxNS != 1<<20 {
		t.Fatalf("MaxNS = %d, want %d", ws.MaxNS, 1<<20)
	}
	p50 := histQuantile(&buckets, ws.Count, ws.MaxNS, 0.50)
	if p50 < 100 || p50 > 256 {
		t.Fatalf("P50 = %d, want bucket bound covering 100ns", p50)
	}
	p99 := histQuantile(&buckets, ws.Count, ws.MaxNS, 0.99)
	if p99 > 1<<21 {
		t.Fatalf("P99 = %d, unexpectedly above the outlier bucket", p99)
	}
	if ws.MeanNS() <= 0 {
		t.Fatalf("MeanNS() = %d, want positive", ws.MeanNS())
	}
}

// TestWaitHistSingleObservation is the regression test for the
// single-sample quantile edge case: one observation of 100ns used to
// report P50 = P95 = 128 (the raw bucket bound) instead of the value
// actually observed.
func TestWaitHistSingleObservation(t *testing.T) {
	var h waitHist
	h.observe(100)
	var buckets [waitHistBuckets]int64
	var ws WaitStats
	h.addTo(&buckets, &ws)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := histQuantile(&buckets, ws.Count, ws.MaxNS, q); got != 100 {
			t.Fatalf("quantile(%.2f) of single 100ns observation = %d, want 100", q, got)
		}
	}
	// An observation beyond the last bucket's range must still report
	// itself, not the (smaller) final bucket bound.
	var h2 waitHist
	big := int64(1) << 40 // waitHistBuckets = 32, so 2^40 overflows the table
	h2.observe(big)
	var b2 [waitHistBuckets]int64
	var ws2 WaitStats
	h2.addTo(&b2, &ws2)
	if got := histQuantile(&b2, ws2.Count, ws2.MaxNS, 0.50); got != big {
		t.Fatalf("quantile(0.50) of single 2^40 observation = %d, want %d", got, big)
	}
}

// TestParTelemetrySampled drives parallel operations with sampling at
// 1-in-1 and checks the fine-grained counters actually populate.
func TestParTelemetrySampled(t *testing.T) {
	withSampling(t, 1)
	m := newPar(t, 32, 4)

	f := buildAdder(m, 16)
	tel := m.ParTelemetry()
	if tel.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", tel.Workers)
	}
	if tel.SampleRate != 1 {
		t.Fatalf("SampleRate = %d, want 1", tel.SampleRate)
	}
	if tel.UniqueWait.Count == 0 {
		t.Errorf("UniqueWait.Count = 0, want sampled unique-table waits")
	}
	if tel.CacheWait.Count == 0 {
		t.Errorf("CacheWait.Count = 0, want sampled cache-stripe waits")
	}
	if len(tel.HotLevels) == 0 {
		t.Errorf("HotLevels empty, want level heat with sampling at 1")
	}
	if len(tel.HotCacheStripes) == 0 {
		t.Errorf("HotCacheStripes empty, want stripe heat with sampling at 1")
	}
	if len(tel.WorkerStats) == 0 {
		t.Fatalf("WorkerStats empty, want per-worker accounting")
	}
	var ops int64
	for _, ws := range tel.WorkerStats {
		ops += ws.Ops
	}
	if ops == 0 {
		t.Errorf("total worker ops = 0, want public operations accounted")
	}
	m.Deref(f)
}

// TestParTelemetrySerialManager checks the zero snapshot shape on a serial
// manager.
func TestParTelemetrySerialManager(t *testing.T) {
	m := New(4)
	tel := m.ParTelemetry()
	if tel.Workers != 1 {
		t.Fatalf("Workers = %d on serial manager, want 1", tel.Workers)
	}
	if len(tel.WorkerStats) != 0 || tel.TasksStolen != 0 {
		t.Fatalf("serial manager reported parallel telemetry: %+v", tel)
	}
}

// TestSTWAccounting checks that stop-the-world epochs land in the per-cause
// totals, in Stats, and at a ParObserver, and that Stats.STWTime never
// exceeds the wall time its epochs span.
func TestSTWAccounting(t *testing.T) {
	obs := &parTestObserver{}
	m := newParObserved(t, 16, 2, obs)

	f := buildAdder(m, 8)
	m.Deref(f)
	m.GarbageCollect()
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck: %v", err)
	}

	st := m.Stats()
	if st.STWCount == 0 {
		t.Fatalf("Stats().STWCount = 0 after GC + DebugCheck, want > 0")
	}
	if st.STWTime < 0 {
		t.Fatalf("Stats().STWTime = %v, want >= 0", st.STWTime)
	}

	tel := m.ParTelemetry()
	causes := map[string]bool{}
	for _, s := range tel.STW {
		causes[s.Cause] = true
		if s.Count <= 0 {
			t.Errorf("cause %q with Count %d in snapshot, want > 0", s.Cause, s.Count)
		}
	}
	if !causes["gc"] {
		t.Errorf("STW causes %v, want gc attributed", causes)
	}
	if !causes["debug_check"] {
		t.Errorf("STW causes %v, want debug_check attributed", causes)
	}

	obs.mu.Lock()
	seen := map[string]bool{}
	for _, c := range obs.stw {
		seen[c] = true
	}
	obs.mu.Unlock()
	if !seen["gc"] || !seen["debug_check"] {
		t.Errorf("ParObserver saw causes %v, want gc and debug_check", seen)
	}

	// Concurrent initiators wait through each other's pauses. Only the
	// pauses are summed, and write-lease epochs never overlap, so the
	// total stays within the wall time the initiators span.
	m2 := newPar(t, 16, 2)
	g := buildAdder(m2, 8)
	base := m2.Stats().STWTime
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				m2.Reorder(ReorderSift, SiftConfig{})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if got := m2.Stats().STWTime - base; got > wall {
		t.Errorf("Stats().STWTime grew by %v over %v of wall time", got, wall)
	}
	m2.Deref(g)
}

// TestParallelAbortReportedOnce: when several workers of one operation trip
// the node budget together, each of them unwinds, but the observer hears
// about the abort once — one flight-recorder dump and one
// bdd_budget_aborts_total increment per aborted operation.
func TestParallelAbortReportedOnce(t *testing.T) {
	const bits = 10
	obs := &parTestObserver{}
	m := newParObserved(t, 2*bits, 4, obs)
	// Two carry chains over different variable pairings: their Xor is far
	// larger than either, so the workers allocate fast and together.
	f := buildAdder(m, bits)
	g := Zero
	for i := 0; i < bits; i++ {
		ab := m.And(m.IthVar(i), m.IthVar(bits+i))
		ng := m.Or(ab, g)
		m.Deref(ab)
		m.Deref(g)
		g = ng
	}
	defer m.Deref(f)
	defer m.Deref(g)

	aborted := 0
	for i := 0; i < 20; i++ {
		err := m.RunLimited(time.Time{}, m.NodeCount()+64, func() error {
			m.Deref(m.Xor(f, g))
			return nil
		})
		if err != nil {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no Xor tripped a 64-node budget")
	}
	if got := obs.abortCount(); got != aborted {
		t.Fatalf("observer saw %d abort reports for %d aborted operations", got, aborted)
	}
}

// TestStallWatchdogFires wedges the write lease on purpose and checks the
// watchdog reports it, exactly once per episode, with the parallel-state
// dump naming the lease.
func TestStallWatchdogFires(t *testing.T) {
	obs := &parTestObserver{}
	m := newParObserved(t, 8, 2, obs)

	stop := m.StartStallWatchdog(20 * time.Millisecond)
	defer stop()

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Quiesce(func() { <-release })
	}()

	deadline := time.Now().Add(5 * time.Second)
	for obs.stallCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if obs.stallCount() == 0 {
		close(release)
		wg.Wait()
		t.Fatalf("watchdog never fired while the write lease was held")
	}

	report := obs.firstStall()
	if !strings.Contains(report, "write lease") {
		t.Errorf("stall report does not name the write lease:\n%s", report)
	}
	if !strings.Contains(report, "exclusive") {
		t.Errorf("stall report does not carry the lease cause:\n%s", report)
	}

	// The once-per-episode latch: holding the lease longer must not
	// produce a second report.
	n := obs.stallCount()
	time.Sleep(100 * time.Millisecond)
	if got := obs.stallCount(); got != n {
		t.Errorf("watchdog fired %d more times within one episode", got-n)
	}

	close(release)
	wg.Wait()

	// After the episode clears and progress resumes, the engine must be
	// fully usable.
	f := buildAdder(m, 4)
	m.Deref(f)
}

// TestStallWatchdogQuietWhenHealthy runs real work under an aggressive
// deadline and checks the watchdog stays silent (no false positives while
// ops are completing).
func TestStallWatchdogQuietWhenHealthy(t *testing.T) {
	obs := &parTestObserver{}
	m := newParObserved(t, 32, 4, obs)

	stop := m.StartStallWatchdog(250 * time.Millisecond)
	defer stop()

	f := buildAdder(m, 16)
	m.Deref(f)
	m.GarbageCollect()

	if n := obs.stallCount(); n != 0 {
		t.Fatalf("watchdog fired %d times on a healthy engine:\n%s", n, obs.firstStall())
	}
}

// TestStallWatchdogSerialNoop checks the watchdog is a no-op on serial
// managers and with a zero deadline.
func TestStallWatchdogSerialNoop(t *testing.T) {
	m := New(4)
	stop := m.StartStallWatchdog(time.Millisecond)
	stop() // must not panic
	mp := newPar(t, 4, 2)
	stop = mp.StartStallWatchdog(0)
	stop()
}

// TestQuiesceRunsExclusively checks Quiesce actually excludes operations:
// while the quiesced section runs, no operation can retire (operations hold
// the read lease for their whole duration, so opsDone is frozen).
func TestQuiesceRunsExclusively(t *testing.T) {
	m := newPar(t, 16, 4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			f := buildAdder(m, 4)
			m.Deref(f)
		}
	}()
	for i := 0; i < 20; i++ {
		m.Quiesce(func() {
			before := m.par.opsDone.Load()
			time.Sleep(100 * time.Microsecond)
			if after := m.par.opsDone.Load(); after != before {
				t.Errorf("%d operations retired while Quiesce held the write lease", after-before)
			}
		})
	}
	close(done)
	wg.Wait()
}

func TestOpCodeNames(t *testing.T) {
	if got := opCodeName(opcITE); got != "ite" {
		t.Fatalf("opCodeName(opcITE) = %q, want ite", got)
	}
	if got := opCodeName(999); got != "unknown" {
		t.Fatalf("opCodeName(999) = %q, want unknown", got)
	}
	for c := stwCause(0); c < stwNumCauses; c++ {
		if c.String() == "unknown" || c.String() == "" {
			t.Fatalf("stwCause %d has no name", c)
		}
	}
}
