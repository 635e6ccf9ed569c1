package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"bddkit/internal/bdd"
)

// Live profiling endpoint: -obs :6060 serves
//
//	/debug/pprof/...   net/http/pprof (CPU, heap, goroutine, trace, ...)
//	/metrics           registry snapshot in Prometheus text exposition
//	/flight            current flight-recorder contents as JSONL
//	/quality           operation-ledger snapshot (per-operator loss) as JSON
//	/parallel          the observed manager's bdd.ParTelemetry as JSON
//	/                  an index of the above
//
// The endpoint is a debug surface: snapshots read live counters without
// synchronization and are advisory while the engines are running.
// /metrics is additionally a production surface — standard Prometheus
// scrapers consume it directly, and `obscheck -prom` lints it.

// serve starts the endpoint on addr and returns a shutdown function that
// drains in-flight requests before closing (hard-close past the drain
// deadline) and reports how the teardown went.
func (s *Session) serve(addr string) (func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		s.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if s.Flight != nil {
			s.Flight.WriteTo(w) //nolint:errcheck // client went away
		}
	})
	mux.HandleFunc("/quality", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.sink.Ledger().Snapshot()) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/parallel", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.mu.Lock()
		mgr := s.mgr
		s.mu.Unlock()
		var t bdd.ParTelemetry // workers 0: no manager observed yet
		if mgr != nil {
			t = mgr.ParTelemetry()
		}
		json.NewEncoder(w).Encode(t) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "bddkit observability endpoint\n\n"+
			"  /metrics      Prometheus text exposition (scrape me)\n"+
			"  /debug/pprof  live profiling\n"+
			"  /flight       flight-recorder contents (JSONL)\n"+
			"  /quality      approximation-loss ledger snapshot (JSON)\n"+
			"  /parallel     live parallel-engine telemetry (workers, contention, STW)\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: -obs %s: %w", addr, err)
	}
	s.BoundAddr = ln.Addr().String()
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // closed by the shutdown func
	drain := s.cfg.ShutdownDrain
	if drain <= 0 {
		drain = DefaultShutdownDrain
	}
	// Shutdown, not Close: a Prometheus scrape or a multi-second pprof
	// profile in flight when the workload finishes must complete intact.
	// Past the drain deadline (a wedged client, an endless profile) the
	// endpoint falls back to a hard Close so teardown cannot hang.
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			closeErr := srv.Close()
			if closeErr != nil {
				return fmt.Errorf("obs: endpoint shutdown: %w (hard close: %v)", err, closeErr)
			}
			return fmt.Errorf("obs: endpoint shutdown: %w", err)
		}
		return nil
	}, nil
}
