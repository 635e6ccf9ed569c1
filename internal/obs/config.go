package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"bddkit/internal/bdd"
)

// Config carries the observability flags shared by every cmd binary:
//
//	-trace FILE        structured JSONL span trace ("-" = stderr)
//	-metrics           print the metrics registry (Prometheus text
//	                   exposition) to stderr on exit
//	-obs ADDR          live endpoint serving pprof, /metrics, /flight,
//	                   /quality, /timeseries, /parallel
//	-par-sample N      1-in-N fine-grained parallel-engine sampling
//	-obs-sample D      time-series sampler interval for /timeseries
//	-stall-deadline D  stall-watchdog deadline (also BDDKIT_STALL_DEADLINE)
//	-obs-linger D      keep the session open this long at Close
//
// Any one of the first three arms the flight recorder, so a panic or
// node-budget exhaustion dumps the recent trace events to stderr, and
// arms the quality ledger (obs.L), so approximation/decomposition/reach
// operations record their loss. The parallel knobs only take effect when
// the session is otherwise enabled and a multi-worker manager is
// observed; the time-series sampler runs only with a live -obs endpoint.
type Config struct {
	Trace      string
	Metrics    bool
	Addr       string
	FlightSize int // ring capacity in events (0 = DefaultFlightSize)

	// SampleInterval is the /timeseries ring sampling period (0 =
	// DefaultSampleInterval). Sampling starts when a manager is observed
	// and the live endpoint is up.
	SampleInterval time.Duration

	// ParSample arms bdd.SetParSampling(ParSample) for the session (0
	// leaves fine-grained sampling off; the previous rate is restored at
	// Close). The default is bdd.DefaultParSampleRate.
	ParSample int
	// StallDeadline arms the parallel stall watchdog on observed managers
	// (0 = off). The -stall-deadline flag defaults to the
	// BDDKIT_STALL_DEADLINE environment variable.
	StallDeadline time.Duration
	// Linger makes Close sleep before tearing the session down, keeping
	// the -obs endpoint scrapeable after the workload finishes (smoke
	// tests curl /parallel and /metrics in that window).
	Linger time.Duration
	// ShutdownDrain bounds how long Close waits for in-flight endpoint
	// requests (scrapes, pprof profiles) to finish before hard-closing
	// the listener (0 = DefaultShutdownDrain).
	ShutdownDrain time.Duration
}

// DefaultShutdownDrain is the default endpoint drain deadline at Close:
// long enough for a straggling scrape or a short pprof profile, short
// enough that teardown never appears hung.
const DefaultShutdownDrain = 5 * time.Second

// AddFlags registers the observability flags on fs.
func (c *Config) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Trace, "trace", "", "write a JSONL span trace to this `file` (\"-\" = stderr)")
	fs.BoolVar(&c.Metrics, "metrics", false, "print the metrics registry (Prometheus text) to stderr on exit")
	fs.StringVar(&c.Addr, "obs", "", "serve pprof/metrics on this `address` (e.g. :6060)")
	fs.IntVar(&c.ParSample, "par-sample", bdd.DefaultParSampleRate,
		"sample 1-in-`N` parallel lock waits and steals when obs is enabled (0 = off)")
	fs.DurationVar(&c.SampleInterval, "obs-sample", DefaultSampleInterval,
		"time-series sampler `interval` for the obs endpoint's /timeseries ring")
	fs.DurationVar(&c.StallDeadline, "stall-deadline", envStallDeadline(),
		"arm the parallel stall watchdog with this `deadline` (0 = off; default $BDDKIT_STALL_DEADLINE)")
	fs.DurationVar(&c.Linger, "obs-linger", 0,
		"keep the obs endpoint up this `duration` after the workload finishes")
}

// envStallDeadline reads the BDDKIT_STALL_DEADLINE environment variable
// (a Go duration, e.g. "30s"); unset or unparsable means off.
func envStallDeadline() time.Duration {
	v := os.Getenv("BDDKIT_STALL_DEADLINE")
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// Enabled reports whether any observability feature was requested.
func (c *Config) Enabled() bool {
	return c.Trace != "" || c.Metrics || c.Addr != ""
}

// Validate rejects nonsensical flag values (negative sampling rates,
// negative durations) before they silently disable or distort the
// telemetry they were meant to configure.
func (c *Config) Validate() error {
	switch {
	case c.FlightSize < 0:
		return fmt.Errorf("obs: flight-recorder size %d is negative", c.FlightSize)
	case c.ParSample < 0:
		return fmt.Errorf("obs: -par-sample %d is negative (0 disables sampling)", c.ParSample)
	case c.SampleInterval < 0:
		return fmt.Errorf("obs: -obs-sample %v is negative", c.SampleInterval)
	case c.StallDeadline < 0:
		return fmt.Errorf("obs: -stall-deadline %v is negative (0 disarms the watchdog)", c.StallDeadline)
	case c.Linger < 0:
		return fmt.Errorf("obs: -obs-linger %v is negative", c.Linger)
	case c.ShutdownDrain < 0:
		return fmt.Errorf("obs: shutdown drain %v is negative", c.ShutdownDrain)
	}
	return nil
}

// Session is a started observability configuration: the metrics registry,
// the armed global tracer, the flight recorder, and (optionally) the live
// HTTP endpoint. It also installs itself as the process-wide bdd.Observer
// so GC pauses, reorder durations, budget aborts, and invariant failures
// flow into the registry, the trace, and the flight recorder.
type Session struct {
	Registry *Registry
	Tracer   *Tracer
	Flight   *FlightRecorder
	// BoundAddr is the live endpoint's actual listen address (useful when
	// -obs requested port 0).
	BoundAddr string

	cfg       Config
	traceFile *os.File
	stopHTTP  func() error

	// dumpW receives flight-recorder dumps (budget aborts, invariant
	// failures, stalls, panics); os.Stderr unless SetDumpWriter redirects
	// it (tests capture dumps this way).
	dumpW io.Writer

	// mu guards the fields the /parallel and /timeseries handlers and
	// Close read while the workload is still installing them (mgr,
	// samplers, watchdog).
	mu           sync.Mutex
	mgr          *bdd.Manager
	sampler      *ParSampler
	timeSampler  *TimeSampler
	stopWatchdog func()
	prevSample   int
	sampleArmed  bool

	gcPause    *Histogram
	gcCount    *Counter
	gcNodes    *Counter
	reorderDur *Histogram
	reorders   *Counter
	aborts     *Counter
	debugFails *Counter
	stwPause   *Histogram
	stwCount   *Counter
	stalls     *Counter
}

// Start arms the observability layer described by c. With no flags set it
// returns a Session whose tracer stays disabled, so callers can wire it
// unconditionally. The session configures the process-global tracer T;
// call Close when done.
func (c Config) Start() (*Session, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		Registry: NewRegistry(),
		Tracer:   T,
		cfg:      c,
		dumpW:    os.Stderr,
	}
	if !c.Enabled() {
		return s, nil
	}
	s.Flight = NewFlightRecorder(c.FlightSize)
	T.SetFlight(s.Flight)
	switch c.Trace {
	case "":
	case "-":
		T.SetSink(os.Stderr)
	default:
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: -trace: %w", err)
		}
		s.traceFile = f
		T.SetSink(f)
	}

	s.gcPause = s.Registry.Histogram("bdd_gc_pause_ns")
	s.gcCount = s.Registry.Counter("bdd_gc_total")
	s.gcNodes = s.Registry.Counter("bdd_gc_reclaimed_nodes")
	s.reorderDur = s.Registry.Histogram("bdd_reorder_ns")
	s.reorders = s.Registry.Counter("bdd_reorder_total")
	s.aborts = s.Registry.Counter("bdd_budget_aborts_total")
	s.debugFails = s.Registry.Counter("bdd_debug_failures_total")
	s.stwPause = s.Registry.Histogram("bdd_stw_pause_ns")
	s.stwCount = s.Registry.Counter("bdd_stw_total")
	s.stalls = s.Registry.Counter("bdd_stall_reports_total")
	for name, text := range map[string]string{
		"bdd_gc_pause_ns":          "garbage-collection pause durations",
		"bdd_gc_total":             "garbage collections observed",
		"bdd_gc_reclaimed_nodes":   "nodes reclaimed by garbage collection",
		"bdd_reorder_ns":           "variable-reordering pass durations",
		"bdd_reorder_total":        "variable-reordering passes observed",
		"bdd_budget_aborts_total":  "node-budget aborts observed",
		"bdd_debug_failures_total": "DebugCheck invariant failures observed",
		"bdd_stw_pause_ns":         "write-lease stop-the-world pause durations",
		"bdd_stw_total":            "write-lease stop-the-world epochs observed",
		"bdd_stall_reports_total":  "parallel stall-watchdog reports",
	} {
		s.Registry.SetHelp(name, text)
	}
	L.arm(s.Registry, T)
	s.prevSample = bdd.ParSampling()
	if c.ParSample > 0 {
		bdd.SetParSampling(c.ParSample)
		s.sampleArmed = true
	}
	bdd.SetObserver(s)

	if c.Addr != "" {
		stop, err := s.serve(c.Addr)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.stopHTTP = stop
	}
	return s, nil
}

// MustStart is Start for cmd mains: flag errors exit(2).
func (c Config) MustStart() *Session {
	s, err := c.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return s
}

// ObserveManager registers snapshot-time gauges over a live BDD manager:
// live/dead/peak node counts, cache geometry and hit rate, unique-table
// traffic, GC and reorder totals, and the peak ITE recursion depth. The
// gauges read the manager without synchronization, so values served while
// the manager is mutating are advisory. It also points the tracer's
// node-delta attribution at this manager.
func (s *Session) ObserveManager(m *bdd.Manager) {
	RegisterManagerGauges(s.Registry, m)
	if s.Tracer != nil {
		s.Tracer.LiveNodes = m.NodeCount
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.mgr = m
	if s.cfg.Addr != "" {
		if s.timeSampler == nil {
			s.timeSampler = newTimeSampler(m, L, s.cfg.SampleInterval)
		} else {
			s.timeSampler.SetManager(m)
		}
	}
	if m.Workers() > 1 {
		if s.cfg.StallDeadline > 0 && s.stopWatchdog == nil {
			s.stopWatchdog = m.StartStallWatchdog(s.cfg.StallDeadline)
		}
		if s.cfg.Addr != "" && s.sampler == nil {
			s.sampler = newParSampler(m, 0)
		}
	}
}

// RegisterManagerGauges installs the standard per-manager gauge set on any
// registry — the session registry here, or a per-tenant registry in a
// multi-manager server. The gauges read the manager without
// synchronization, so values served while the manager is mutating are
// advisory.
func RegisterManagerGauges(r *Registry, m *bdd.Manager) {
	r.GaugeFunc("bdd_live_nodes", func() float64 { return float64(m.NodeCount()) })
	r.GaugeFunc("bdd_dead_nodes", func() float64 { return float64(m.DeadCount()) })
	r.GaugeFunc("bdd_peak_live_nodes", func() float64 { return float64(m.Stats().PeakLive) })
	r.GaugeFunc("bdd_peak_ite_depth", func() float64 { return float64(m.Stats().PeakITEDepth) })
	r.GaugeFunc("bdd_gc_time_ns", func() float64 { return float64(m.Stats().GCTime) })
	r.GaugeFunc("bdd_reorder_time_ns", func() float64 { return float64(m.Stats().ReorderTime) })
	r.GaugeFunc("bdd_reorderings", func() float64 { return float64(m.Stats().Reorderings) })
	r.GaugeFunc("bdd_cache_lookups", func() float64 { return float64(m.Stats().CacheLookups) })
	r.GaugeFunc("bdd_cache_hits", func() float64 { return float64(m.Stats().CacheHits) })
	r.GaugeFunc("bdd_cache_hit_rate", func() float64 { return m.CacheStats().HitRate })
	r.GaugeFunc("bdd_cache_entries", func() float64 { return float64(m.CacheStats().Entries) })
	r.GaugeFunc("bdd_cache_evictions", func() float64 { return float64(m.Stats().CacheEvictions) })
	r.GaugeFunc("bdd_cache_resizes", func() float64 { return float64(m.Stats().CacheResizes) })
	r.GaugeFunc("bdd_unique_lookups", func() float64 { return float64(m.Stats().UniqueLookups) })
	r.GaugeFunc("bdd_unique_hits", func() float64 { return float64(m.Stats().UniqueHits) })
	r.GaugeFunc("bdd_unique_grows", func() float64 { return float64(m.Stats().UniqueGrows) })
	r.GaugeFunc("bdd_node_limit", func() float64 { return float64(m.NodeLimit()) })
	r.GaugeFunc("bdd_budget_headroom", func() float64 { return headroom(m.NodeLimit(), m.NodeCount()) })
	r.GaugeFunc("bdd_arena_capacity", func() float64 { return float64(m.ArenaStats().Capacity) })
	r.GaugeFunc("bdd_arena_occupancy", func() float64 { return m.ArenaStats().Occupancy() })
	r.SetHelp("bdd_node_limit", "armed live-node ceiling (0 = unlimited)")
	r.SetHelp("bdd_budget_headroom", "remaining node-budget fraction (1 = unconstrained)")
	r.SetHelp("bdd_arena_capacity", "node-arena slot capacity")
	r.SetHelp("bdd_arena_occupancy", "fraction of arena slots holding live or dead nodes")
	r.GaugeFunc("bdd_workers", func() float64 { return float64(m.Workers()) })
	r.GaugeFunc("bdd_tasks_stolen", func() float64 { return float64(m.Stats().TasksStolen) })
	r.GaugeFunc("bdd_tasks_local", func() float64 { return float64(m.Stats().TasksLocal) })
	r.GaugeFunc("bdd_stw_epochs", func() float64 { return float64(m.Stats().STWCount) })
	r.GaugeFunc("bdd_stw_time_ns", func() float64 { return float64(m.Stats().STWTime) })
}

// SetDumpWriter redirects flight-recorder dumps (budget aborts, invariant
// failures, stalls, panics) away from os.Stderr — tests assert on dump
// contents this way. A nil w restores stderr.
func (s *Session) SetDumpWriter(w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	s.mu.Lock()
	s.dumpW = w
	s.mu.Unlock()
}

// dumpWriter returns the current dump destination.
func (s *Session) dumpWriter() io.Writer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dumpW == nil {
		return os.Stderr
	}
	return s.dumpW
}

// sampleInterval reports the effective /timeseries sampling period.
func (s *Session) sampleInterval() time.Duration {
	if s.cfg.SampleInterval > 0 {
		return s.cfg.SampleInterval
	}
	return DefaultSampleInterval
}

// Close flushes the trace sink, stops the HTTP endpoint, uninstalls the
// bdd observer, and prints the metrics snapshot when -metrics was given.
// With -obs-linger it first sleeps, leaving the endpoint scrapeable; it
// then stops the watchdog and sampler, emits the end-of-run per-subsystem
// bdd.contention snapshot into the trace, and tears down.
func (s *Session) Close() {
	if s == nil {
		return
	}
	if s.cfg.Linger > 0 {
		time.Sleep(s.cfg.Linger)
	}
	s.mu.Lock()
	if s.stopWatchdog != nil {
		s.stopWatchdog()
		s.stopWatchdog = nil
	}
	if s.sampler != nil {
		s.sampler.Stop()
		s.sampler = nil
	}
	if s.timeSampler != nil {
		s.timeSampler.Stop()
		s.timeSampler = nil
	}
	mgr := s.mgr
	s.mgr = nil
	s.mu.Unlock()
	if L.Enabled() {
		L.disarm()
	}
	if mgr != nil && mgr.Workers() > 1 {
		s.emitContention(mgr.ParTelemetry())
	}
	if s.sampleArmed {
		bdd.SetParSampling(s.prevSample)
		s.sampleArmed = false
	}
	if bdd.CurrentObserver() == bdd.Observer(s) {
		bdd.SetObserver(nil)
	}
	if s.stopHTTP != nil {
		if err := s.stopHTTP(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		s.stopHTTP = nil
	}
	if s.Tracer != nil {
		if err := s.Tracer.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "obs: trace write error:", err)
		}
		s.Tracer.SetSink(nil)
		s.Tracer.SetFlight(nil)
		s.Tracer.LiveNodes = nil
	}
	if s.traceFile != nil {
		s.traceFile.Close()
		s.traceFile = nil
	}
	if s.cfg.Metrics {
		fmt.Fprintln(os.Stderr, "--- metrics snapshot ---")
		s.Registry.WritePrometheus(os.Stderr)
		if snap := L.Snapshot(); snap.Ops > 0 {
			fmt.Fprintln(os.Stderr, "--- quality ledger ---")
			snap.WriteReport(os.Stderr)
		}
	}
}

// DumpOnPanic re-raises a panic after dumping the flight recorder; defer
// it first thing in a cmd main:
//
//	defer sess.DumpOnPanic()
func (s *Session) DumpOnPanic() {
	if r := recover(); r != nil {
		if s != nil && s.Flight != nil {
			s.Flight.Dump(s.dumpWriter(), fmt.Sprintf("panic: %v", r))
		}
		panic(r)
	}
}

// bdd.Observer implementation -------------------------------------------

// GC records a garbage collection in the registry, the trace, and the
// flight recorder.
func (s *Session) GC(reclaimed, live int, pause time.Duration) {
	s.gcPause.Observe(pause.Nanoseconds())
	s.gcCount.Inc()
	s.gcNodes.Add(int64(reclaimed))
	s.Tracer.Event("bdd.gc",
		Int("reclaimed", reclaimed), Int("live", live), Dur("pause_ns", pause))
}

// Reorder records a reordering pass.
func (s *Session) Reorder(before, after int, dur time.Duration) {
	s.reorderDur.Observe(dur.Nanoseconds())
	s.reorders.Inc()
	s.Tracer.Event("bdd.reorder",
		Int("nodes_before", before), Int("nodes_after", after), Dur("dur_ns", dur))
}

// Abort dumps the flight recorder: node-budget exhaustion is exactly the
// moment the recent trace history explains what grew. The emitted
// bdd.abort event carries the open-span stack — open spans have not
// written their own records yet, so without it the dump could not say
// *where* the run died.
func (s *Session) Abort(reason string) {
	s.aborts.Inc()
	s.Tracer.Event("bdd.abort",
		Str("reason", reason), Str("stack", s.Tracer.StackString()))
	if s.Flight != nil {
		s.Flight.Dump(s.dumpWriter(), "node budget exhausted: "+reason)
	}
}

// DebugFailure dumps the flight recorder on an invariant violation.
func (s *Session) DebugFailure(err error) {
	s.debugFails.Inc()
	s.Tracer.Event("bdd.debug_failure", Str("error", err.Error()))
	if s.Flight != nil {
		s.Flight.Dump(s.dumpWriter(), "DebugCheck failure: "+err.Error())
	}
}

// bdd.ParObserver implementation -----------------------------------------

// STW records one write-lease / stop-the-world epoch: pause histogram,
// total and per-cause counters, and a bdd.stw trace event carrying the
// Amdahl attribution (cause, wait, pause, worker count).
func (s *Session) STW(cause string, workers int, wait, pause time.Duration) {
	s.stwPause.Observe(pause.Nanoseconds())
	s.stwCount.Inc()
	s.Registry.Counter("bdd_stw_" + cause + "_total").Inc()
	s.Tracer.Event("bdd.stw",
		Str("cause", cause), Int("workers", workers),
		Dur("wait_ns", wait), Dur("pause_ns", pause))
}

// Stall records a stall-watchdog firing: the report goes into the trace
// (and thereby the flight recorder), and the flight recorder dumps to
// stderr immediately — a stuck engine may never reach a clean exit.
func (s *Session) Stall(report string, stuck time.Duration) {
	s.stalls.Inc()
	s.Tracer.Event("bdd.stall", Str("report", report), Dur("stuck_ns", stuck))
	if s.Flight != nil {
		s.Flight.Dump(s.dumpWriter(), "parallel engine stalled for "+stuck.String()+":\n"+report)
	}
}

// emitContention writes one bdd.contention trace event per instrumented
// subsystem from a final telemetry snapshot, so post-hoc analysis gets the
// merged wait distributions without scraping /parallel.
func (s *Session) emitContention(t bdd.ParTelemetry) {
	emit := func(subsystem string, ws bdd.WaitStats) {
		s.Tracer.Event("bdd.contention",
			Str("subsystem", subsystem),
			I64("count", ws.Count), I64("sum_ns", ws.SumNS), I64("max_ns", ws.MaxNS),
			I64("p50_ns", ws.P50NS), I64("p95_ns", ws.P95NS), I64("p99_ns", ws.P99NS))
	}
	emit("unique", t.UniqueWait)
	emit("cache", t.CacheWait)
	emit("lease", t.LeaseWait)
	emit("steal", t.StealLatency)
	emit("join", t.JoinWait)
	emit("deque", t.DequeDepth)
}

var _ bdd.Observer = (*Session)(nil)
var _ bdd.ParObserver = (*Session)(nil)
