package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// Config carries the server's knobs (each tenant can override the
// per-tenant ones at creation).
type Config struct {
	// DefaultQuota is the per-tenant live-node budget.
	DefaultQuota int
	// DefaultQueueDepth bounds each tenant's admission queue.
	DefaultQueueDepth int
	// DefaultDeadline bounds each operation (and each admission wait).
	DefaultDeadline time.Duration
	// Workers is the default per-tenant image-schedule selector (see
	// CreateTenantRequest.Workers).
	Workers int
	// CacheBits is the default per-tenant computed-table exponent.
	CacheBits uint
	// MaxTenants bounds the pool (0 = DefaultMaxTenants).
	MaxTenants int
	// MaxBodyBytes bounds every request body, JSON, netlist or snapshot;
	// a longer one is refused with 413 (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// ShutdownDrain bounds how long Close waits for in-flight requests.
	ShutdownDrain time.Duration
}

// Defaults for the zero Config.
const (
	DefaultQuota         = 1 << 20
	DefaultQueueDepth    = 8
	DefaultDeadline      = 30 * time.Second
	DefaultMaxTenants    = 64
	DefaultMaxBodyBytes  = 64 << 20
	DefaultShutdownDrain = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.DefaultQuota <= 0 {
		c.DefaultQuota = DefaultQuota
	}
	if c.DefaultQueueDepth <= 0 {
		c.DefaultQueueDepth = DefaultQueueDepth
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultDeadline
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = DefaultMaxTenants
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.ShutdownDrain <= 0 {
		c.ShutdownDrain = DefaultShutdownDrain
	}
	return c
}

// Server is the multi-tenant daemon: a tenant pool, the v1 HTTP API, and
// a Prometheus surface merging the server registry with every tenant's
// registry under a tenant label.
type Server struct {
	cfg Config

	reg      *obs.Registry
	requests *obs.Counter
	sheds    *obs.Counter
	degrades *obs.Counter

	mu      sync.Mutex
	tenants map[string]*Tenant

	httpSrv *http.Server
	// BoundAddr is the live listen address after Start (useful with :0).
	BoundAddr string
}

// New builds a Server (not yet listening).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		requests: reg.Counter("serve_requests_total"),
		sheds:    reg.Counter("serve_sheds_total"),
		degrades: reg.Counter("serve_degrades_total"),
		tenants:  make(map[string]*Tenant),
	}
	reg.SetHelp("serve_requests_total", "API requests received")
	reg.SetHelp("serve_sheds_total", "requests shed by admission control")
	reg.SetHelp("serve_degrades_total", "budget-degraded answers served")
	reg.GaugeFunc("serve_tenants", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.tenants))
	})
	reg.SetHelp("serve_tenants", "live tenant sessions")
	return s
}

// tenant looks up a live tenant.
func (s *Server) tenant(id string) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return nil, fmt.Errorf("unknown tenant %q", id)
	}
	return t, nil
}

// maxTenantCacheBits caps the computed table a client may ask for: the
// ceiling a default manager's table grows to on its own (2^22 entries,
// about 117 MB). The table is allocated in full when the tenant's manager
// is built, outside any node quota; at 64 bits the size wraps to 0 and
// the build panics.
var maxTenantCacheBits = bdd.DefaultConfig().CacheMaxBits

// createTenant adds a tenant with the request's overrides on top of the
// server defaults.
func (s *Server) createTenant(id string, req CreateTenantRequest) (*Tenant, error) {
	if id == "" {
		return nil, fmt.Errorf("empty tenant id")
	}
	quota := req.Quota
	if quota <= 0 {
		quota = s.cfg.DefaultQuota
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	queueDepth := req.QueueDepth
	if queueDepth <= 0 {
		queueDepth = s.cfg.DefaultQueueDepth
	}
	if req.CacheBits > maxTenantCacheBits {
		return nil, fmt.Errorf("cache_bits %d exceeds %d", req.CacheBits, maxTenantCacheBits)
	}
	cacheBits := req.CacheBits
	if cacheBits == 0 {
		cacheBits = s.cfg.CacheBits
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[id]; ok {
		return nil, fmt.Errorf("tenant %q already exists", id)
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("tenant pool full (%d)", s.cfg.MaxTenants)
	}
	t := newTenant(id, quota, workers, queueDepth, cacheBits, deadline)
	s.tenants[id] = t
	return t, nil
}

// dropTenant closes and removes a tenant.
func (s *Server) dropTenant(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	delete(s.tenants, id)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown tenant %q", id)
	}
	t.close()
	return nil
}

// labeledRegistries snapshots the exposition set: the server registry
// unlabeled, each tenant registry under tenant="id", in sorted order so
// scrapes are stable. Each idle tenant's manager gauges are refreshed
// first (Tenant.refreshGauges).
func (s *Server) labeledRegistries() []obs.LabeledRegistry {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	regs := make([]obs.LabeledRegistry, 0, len(ids)+1)
	regs = append(regs, obs.LabeledRegistry{R: s.reg})
	tenants := make([]*Tenant, 0, len(ids))
	for _, id := range ids {
		tenants = append(tenants, s.tenants[id])
		regs = append(regs, obs.LabeledRegistry{
			Labels: fmt.Sprintf("tenant=%q", id),
			R:      s.tenants[id].reg,
		})
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.refreshGauges()
	}
	return regs
}

// Start listens on addr and serves until Close. It returns once the
// listener is bound; BoundAddr carries the resolved address.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.BoundAddr = ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go s.httpSrv.Serve(ln) //nolint:errcheck // closed by Close
	return nil
}

// Close drains in-flight requests (bounded by ShutdownDrain, hard-closing
// past it) and tears down every tenant.
func (s *Server) Close() error {
	var err error
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownDrain)
		err = s.httpSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			if closeErr := s.httpSrv.Close(); closeErr != nil {
				err = fmt.Errorf("serve: shutdown: %w (hard close: %v)", err, closeErr)
			} else {
				err = fmt.Errorf("serve: shutdown: %w", err)
			}
		}
		s.httpSrv = nil
	}
	s.mu.Lock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for id, t := range s.tenants {
		tenants = append(tenants, t)
		delete(s.tenants, id)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.close()
	}
	return err
}
