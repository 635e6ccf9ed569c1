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
// Any one of the first three enables the session: it gets a flight
// recorder, so a panic or node-budget exhaustion dumps the recent trace
// events to stderr, and a Sink with a quality ledger, so the managers
// built with the session's Observer record their events and their
// approximation/decomposition/reach operations record their loss. The
// parallel knobs only take effect when the session is otherwise enabled
// and a multi-worker manager is observed; the time-series sampler runs
// only with a live -obs endpoint.
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
	// the -obs endpoint scrapeable after the workload finishes (a scraper
	// or bddtop can take its last reading in that window).
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
// the session's tracer, the flight recorder, (optionally) the live HTTP
// endpoint, and the Sink every manager the session watches is built with
// (see Observer), so GC pauses, reorder durations, budget aborts,
// invariant failures and quality-ledger records flow into the registry,
// the trace, and the flight recorder.
type Session struct {
	Registry *Registry
	Tracer   *Tracer
	Flight   *FlightRecorder
	// BoundAddr is the live endpoint's actual listen address (useful when
	// -obs requested port 0).
	BoundAddr string

	sink      *Sink // nil unless a flag enabled the session
	cfg       Config
	traceFile *os.File
	stopHTTP  func() error

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
}

// Start arms the observability layer described by c. With no flags set it
// returns a Session whose tracer stays disabled and whose Observer is nil,
// so callers can wire it unconditionally. Call Close when done.
func (c Config) Start() (*Session, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		Registry: NewRegistry(),
		Tracer:   &Tracer{},
		cfg:      c,
	}
	if !c.Enabled() {
		return s, nil
	}
	s.Flight = NewFlightRecorder(c.FlightSize)
	s.Tracer.SetFlight(s.Flight)
	switch c.Trace {
	case "":
	case "-":
		s.Tracer.SetSink(os.Stderr)
	default:
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: -trace: %w", err)
		}
		s.traceFile = f
		s.Tracer.SetSink(f)
	}
	s.sink = NewSink(s.Registry, s.Tracer)
	s.prevSample = bdd.ParSampling()
	if c.ParSample > 0 {
		bdd.SetParSampling(c.ParSample)
		s.sampleArmed = true
	}

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

// Observer returns the bdd.Observer that managers watched by the session
// are built with (bdd.Config.Observer): the session's Sink, or nil when
// the session is nil or no flag enabled it.
func (s *Session) Observer() bdd.Observer {
	if s == nil || s.sink == nil {
		return nil
	}
	return s.sink
}

// ObserveManager registers snapshot-time gauges over a live BDD manager:
// live/dead/peak node counts, cache geometry and hit rate, unique-table
// traffic, GC and reorder totals, and the peak ITE recursion depth. The
// gauges read the manager without synchronization, so values served while
// the manager is mutating are advisory. It also points the tracer's
// node-delta attribution at this manager. Events reach the session only
// from managers built with its Observer. No-op on a nil session.
func (s *Session) ObserveManager(m *bdd.Manager) {
	if s == nil {
		return
	}
	RegisterManagerGauges(s.Registry, m)
	s.Tracer.LiveNodes = m.NodeCount

	s.mu.Lock()
	defer s.mu.Unlock()
	s.mgr = m
	if s.cfg.Addr != "" {
		if s.timeSampler == nil {
			s.timeSampler = newTimeSampler(m, s.sink.Ledger(), s.cfg.SampleInterval)
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

// SetDumpWriter redirects the session's flight-recorder dumps; see
// Sink.SetDumpWriter. No-op on a session no flag enabled.
func (s *Session) SetDumpWriter(w io.Writer) {
	if s.sink != nil {
		s.sink.SetDumpWriter(w)
	}
}

// sampleInterval reports the effective /timeseries sampling period.
func (s *Session) sampleInterval() time.Duration {
	if s.cfg.SampleInterval > 0 {
		return s.cfg.SampleInterval
	}
	return DefaultSampleInterval
}

// Close flushes the trace sink, stops the HTTP endpoint, and prints the
// metrics snapshot and quality report when -metrics was given.
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
	if mgr != nil && mgr.Workers() > 1 {
		s.emitContention(mgr.ParTelemetry())
	}
	if s.sampleArmed {
		bdd.SetParSampling(s.prevSample)
		s.sampleArmed = false
	}
	if s.stopHTTP != nil {
		if err := s.stopHTTP(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		s.stopHTTP = nil
	}
	if err := s.Tracer.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "obs: trace write error:", err)
	}
	s.Tracer.SetSink(nil)
	s.Tracer.SetFlight(nil)
	s.Tracer.LiveNodes = nil
	if s.traceFile != nil {
		s.traceFile.Close()
		s.traceFile = nil
	}
	if s.cfg.Metrics {
		fmt.Fprintln(os.Stderr, "--- metrics snapshot ---")
		s.Registry.WritePrometheus(os.Stderr)
		if snap := s.sink.Ledger().Snapshot(); snap.Ops > 0 {
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
		if s != nil && s.sink != nil {
			s.sink.dump(fmt.Sprintf("panic: %v", r))
		}
		panic(r)
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
