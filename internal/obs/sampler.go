package obs

import (
	"sync"
	"time"

	"bddkit/internal/bdd"
)

// Time-series core: a low-overhead periodic sampler that snapshots the
// manager gauges and quality counters into a ring buffer. The ring is the
// short-horizon history behind /timeseries (what cmd/bddtop plots as
// trajectories); the instantaneous values back the Prometheus gauges on
// /metrics, so a standard scraper gets the same series at whatever
// interval it chooses. Sampling reads the manager without synchronization
// — the values are advisory while the engines mutate, same contract as
// the registry's GaugeFuncs.

const (
	// DefaultSampleInterval is the -obs-sample default.
	DefaultSampleInterval = 250 * time.Millisecond
	// timeRingSize bounds the /timeseries history (~64 s at the default
	// interval — enough for bddtop's trajectory panes).
	timeRingSize = 256
)

// TimePoint is one timestamped sample of the manager/quality gauges.
type TimePoint struct {
	TS string `json:"ts"` // RFC3339Nano

	LiveNodes      int     `json:"live_nodes"`
	DeadNodes      int     `json:"dead_nodes"`
	ArenaCapacity  int     `json:"arena_capacity"`
	ArenaOccupancy float64 `json:"arena_occupancy"` // (live+dead)/capacity
	CacheHitRate   float64 `json:"cache_hit_rate"`
	GCTotal        int64   `json:"gc_total"`
	STWShare       float64 `json:"stw_share"` // STW time / wall time since sampling began

	NodeLimit      int     `json:"node_limit,omitempty"`
	BudgetHeadroom float64 `json:"budget_headroom"`

	QualityOps    int64   `json:"quality_ops"`
	QualityAborts int64   `json:"quality_aborts"`
	MassRetained  float64 `json:"mass_retained"` // most recent ledger record (1 when none)
}

// TimeSampler periodically snapshots a manager plus the quality ledger
// into a ring buffer.
type TimeSampler struct {
	m      *bdd.Manager
	ledger *Ledger
	start  time.Time
	ticker *time.Ticker
	done   chan struct{}
	wg     sync.WaitGroup

	mu   sync.Mutex
	ring []TimePoint // oldest first, capped at timeRingSize
}

// newTimeSampler starts sampling m every interval (0 selects the
// default).
func newTimeSampler(m *bdd.Manager, ledger *Ledger, interval time.Duration) *TimeSampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	ts := &TimeSampler{
		m:      m,
		ledger: ledger,
		start:  time.Now(),
		ticker: time.NewTicker(interval),
		done:   make(chan struct{}),
	}
	ts.sample() // a point at t=0, so short runs still have history
	ts.wg.Add(1)
	go ts.loop()
	return ts
}

func (ts *TimeSampler) loop() {
	defer ts.wg.Done()
	for {
		select {
		case <-ts.done:
			return
		case <-ts.ticker.C:
			ts.sample()
		}
	}
}

// Sample reads one TimePoint off the manager and ledger without storing
// it — the building block sample() appends and tests call directly.
func (ts *TimeSampler) Sample() TimePoint {
	m := ts.manager()
	arena := m.ArenaStats()
	stats := m.Stats()
	p := TimePoint{
		TS:             time.Now().Format(time.RFC3339Nano),
		LiveNodes:      m.NodeCount(),
		DeadNodes:      m.DeadCount(),
		ArenaCapacity:  arena.Capacity,
		ArenaOccupancy: arena.Occupancy(),
		CacheHitRate:   m.CacheStats().HitRate,
		GCTotal:        stats.GCs,
		NodeLimit:      m.NodeLimit(),
		MassRetained:   1,
	}
	p.BudgetHeadroom = headroom(p.NodeLimit, p.LiveNodes)
	if wall := time.Since(ts.start); wall > 0 {
		p.STWShare = float64(stats.STWTime) / float64(wall.Nanoseconds())
	}
	if ts.ledger != nil {
		snap := ts.ledger.Snapshot()
		p.QualityOps = snap.Ops
		p.QualityAborts = snap.Aborts
		if snap.Last != nil {
			p.MassRetained = snap.Last.MassRetained
		}
	}
	return p
}

func (ts *TimeSampler) sample() {
	p := ts.Sample()
	ts.mu.Lock()
	ts.ring = append(ts.ring, p)
	if len(ts.ring) > timeRingSize {
		copy(ts.ring, ts.ring[len(ts.ring)-timeRingSize:])
		ts.ring = ts.ring[:timeRingSize]
	}
	ts.mu.Unlock()
}

// SetManager re-points the sampler at a new manager. Benchmark drivers
// create a fresh manager per run; re-pointing keeps one continuous ring
// across runs instead of restarting history.
func (ts *TimeSampler) SetManager(m *bdd.Manager) {
	ts.mu.Lock()
	ts.m = m
	ts.mu.Unlock()
}

// manager returns the current sampling target.
func (ts *TimeSampler) manager() *bdd.Manager {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.m
}

// History returns the ring contents, oldest first.
func (ts *TimeSampler) History() []TimePoint {
	ts.mu.Lock()
	out := make([]TimePoint, len(ts.ring))
	copy(out, ts.ring)
	ts.mu.Unlock()
	return out
}

// Stop halts the sampling goroutine. Safe to call twice.
func (ts *TimeSampler) Stop() {
	select {
	case <-ts.done:
		return
	default:
	}
	ts.ticker.Stop()
	close(ts.done)
	ts.wg.Wait()
}
