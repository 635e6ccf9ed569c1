package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bddkit/internal/bdd"
)

// Config carries the observability flags shared by every cmd binary:
//
//	-trace FILE        structured JSONL span trace ("-" = stderr)
//	-metrics           print the metrics registry (Prometheus text
//	                   exposition) to stderr on exit
//	-obs ADDR          live endpoint serving pprof, /metrics, /flight,
//	                   /quality
//	-obs-linger D      keep the session open this long at Close
//
// Any one of the first three enables the session: it gets a flight
// recorder, so a panic or node-budget exhaustion dumps the recent trace
// events to stderr, and a Sink with a quality ledger, so the managers
// built with the session's Observer record their events and their
// approximation/decomposition/reach operations record their loss.
type Config struct {
	Trace   string
	Metrics bool
	Addr    string

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
	fs.DurationVar(&c.Linger, "obs-linger", 0,
		"keep the obs endpoint up this `duration` after the workload finishes")
}

// Enabled reports whether any observability feature was requested.
func (c *Config) Enabled() bool {
	return c.Trace != "" || c.Metrics || c.Addr != ""
}

// Validate rejects negative durations before they silently disable or
// distort the telemetry they were meant to configure.
func (c *Config) Validate() error {
	switch {
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
	s.Flight = NewFlightRecorder(DefaultFlightSize)
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
// gauges read the manager at scrape time without synchronization, so
// values served while the manager is mutating are advisory, and the read
// races with the goroutine operating on it (DESIGN.md §7). It also points
// the tracer's node-delta attribution at this manager. Events reach the
// session only from managers built with its Observer. No-op on a nil
// session.
func (s *Session) ObserveManager(m *bdd.Manager) {
	if s == nil {
		return
	}
	RegisterManagerGauges(s.Registry, func() ManagerSnapshot { return SnapshotManager(m) })
	s.Tracer.LiveNodes = m.NodeCount
}

// ManagerSnapshot holds the values of the standard per-manager gauges,
// read off one manager at one instant.
type ManagerSnapshot struct {
	Live, Dead   int
	NodeLimit    int
	CacheEntries int
	Stats        bdd.Stats
	Arena        bdd.ArenaStats
}

// SnapshotManager reads the gauge values off m. It must not run while
// another goroutine operates on m: a server takes it under the lock that
// serializes the manager's operations.
func SnapshotManager(m *bdd.Manager) ManagerSnapshot {
	return ManagerSnapshot{
		Live:         m.NodeCount(),
		Dead:         m.DeadCount(),
		NodeLimit:    m.NodeLimit(),
		CacheEntries: m.CacheStats().Entries,
		Stats:        m.Stats(),
		Arena:        m.ArenaStats(),
	}
}

// RegisterManagerGauges installs the standard per-manager gauge set on any
// registry — the session registry, or a per-tenant registry in a
// multi-manager server. Each gauge reads its value off snap at scrape
// time, on the scraping goroutine: a server passes the snapshot its last
// operation left (see serve.Tenant), a single-threaded cmd a live read.
func RegisterManagerGauges(r *Registry, snap func() ManagerSnapshot) {
	gauge := func(name string, v func(s *ManagerSnapshot) float64) {
		r.GaugeFunc(name, func() float64 {
			s := snap()
			return v(&s)
		})
	}
	gauge("bdd_live_nodes", func(s *ManagerSnapshot) float64 { return float64(s.Live) })
	gauge("bdd_dead_nodes", func(s *ManagerSnapshot) float64 { return float64(s.Dead) })
	gauge("bdd_peak_live_nodes", func(s *ManagerSnapshot) float64 { return float64(s.Stats.PeakLive) })
	gauge("bdd_peak_ite_depth", func(s *ManagerSnapshot) float64 { return float64(s.Stats.PeakITEDepth) })
	gauge("bdd_gc_time_ns", func(s *ManagerSnapshot) float64 { return float64(s.Stats.GCTime) })
	gauge("bdd_reorder_time_ns", func(s *ManagerSnapshot) float64 { return float64(s.Stats.ReorderTime) })
	gauge("bdd_reorderings", func(s *ManagerSnapshot) float64 { return float64(s.Stats.Reorderings) })
	gauge("bdd_cache_lookups", func(s *ManagerSnapshot) float64 { return float64(s.Stats.CacheLookups) })
	gauge("bdd_cache_hits", func(s *ManagerSnapshot) float64 { return float64(s.Stats.CacheHits) })
	gauge("bdd_cache_hit_rate", func(s *ManagerSnapshot) float64 {
		if s.Stats.CacheLookups == 0 {
			return 0
		}
		return float64(s.Stats.CacheHits) / float64(s.Stats.CacheLookups)
	})
	gauge("bdd_cache_entries", func(s *ManagerSnapshot) float64 { return float64(s.CacheEntries) })
	gauge("bdd_cache_evictions", func(s *ManagerSnapshot) float64 { return float64(s.Stats.CacheEvictions) })
	gauge("bdd_cache_resizes", func(s *ManagerSnapshot) float64 { return float64(s.Stats.CacheResizes) })
	gauge("bdd_unique_lookups", func(s *ManagerSnapshot) float64 { return float64(s.Stats.UniqueLookups) })
	gauge("bdd_unique_hits", func(s *ManagerSnapshot) float64 { return float64(s.Stats.UniqueHits) })
	gauge("bdd_unique_grows", func(s *ManagerSnapshot) float64 { return float64(s.Stats.UniqueGrows) })
	gauge("bdd_node_limit", func(s *ManagerSnapshot) float64 { return float64(s.NodeLimit) })
	gauge("bdd_budget_headroom", func(s *ManagerSnapshot) float64 { return headroom(s.NodeLimit, s.Live) })
	gauge("bdd_arena_capacity", func(s *ManagerSnapshot) float64 { return float64(s.Arena.Capacity) })
	gauge("bdd_arena_occupancy", func(s *ManagerSnapshot) float64 { return s.Arena.Occupancy() })
	r.SetHelp("bdd_node_limit", "armed live-node ceiling (0 = unlimited)")
	r.SetHelp("bdd_budget_headroom", "remaining node-budget fraction (1 = unconstrained)")
	r.SetHelp("bdd_arena_capacity", "node-arena slot capacity")
	r.SetHelp("bdd_arena_occupancy", "fraction of arena slots holding live or dead nodes")
}

// SetDumpWriter redirects the session's flight-recorder dumps; see
// Sink.SetDumpWriter. No-op on a session no flag enabled.
func (s *Session) SetDumpWriter(w io.Writer) {
	if s.sink != nil {
		s.sink.SetDumpWriter(w)
	}
}

// Close flushes the trace sink, stops the HTTP endpoint, and prints the
// metrics snapshot and quality report when -metrics was given.
// With -obs-linger it first sleeps, leaving the endpoint scrapeable.
func (s *Session) Close() {
	if s == nil {
		return
	}
	if s.cfg.Linger > 0 {
		time.Sleep(s.cfg.Linger)
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
