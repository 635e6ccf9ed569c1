// Command bddserve runs the multi-tenant BDD service: per-tenant sessions
// with their own managers and node quotas, an HTTP/JSON API over the
// library's build/approximate/decompose/traverse/count surface, admission
// control with deadline shedding, and budget-triggered degradation through
// the paper's under-approximation operators. Metrics for the server and
// every tenant are exposed on /metrics in Prometheus text format.
//
// Usage:
//
//	bddserve -addr :8344 -quota 200000 -deadline 30s
//
// See DESIGN.md ("Service layer") for the API walk-through.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bddkit/internal/cliutil"
	"bddkit/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8344", "listen address")
		workers    = flag.Int("workers", 1, "default per-tenant manager workers (0 = GOMAXPROCS, 1 = serial)")
		cacheBits  = flag.Uint("cache-bits", 0, "default per-tenant computed-table size exponent (0 = library default)")
		quota      = flag.Int("quota", serve.DefaultQuota, "default per-tenant live-node quota")
		deadline   = flag.Duration("deadline", serve.DefaultDeadline, "default per-operation deadline")
		queueDepth = flag.Int("queue-depth", serve.DefaultQueueDepth, "default per-tenant admission queue depth")
		maxTenants = flag.Int("max-tenants", serve.DefaultMaxTenants, "tenant pool size limit")
		drain      = flag.Duration("drain", serve.DefaultShutdownDrain, "shutdown drain window for in-flight requests")
	)
	flag.Parse()
	if err := cliutil.Check(
		cliutil.Workers(*workers),
		cliutil.CacheBits("cache-bits", *cacheBits),
		cliutil.Positive("quota", *quota),
		cliutil.PositiveDuration("deadline", *deadline),
		cliutil.Positive("queue-depth", *queueDepth),
		cliutil.Positive("max-tenants", *maxTenants),
		cliutil.PositiveDuration("drain", *drain),
	); err != nil {
		fmt.Fprintln(os.Stderr, "bddserve:", err)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		DefaultQuota:      *quota,
		DefaultQueueDepth: *queueDepth,
		DefaultDeadline:   *deadline,
		Workers:           *workers,
		CacheBits:         *cacheBits,
		MaxTenants:        *maxTenants,
		ShutdownDrain:     *drain,
	})
	if err := srv.Start(*addr); err != nil {
		log.Fatalf("bddserve: %v", err)
	}
	log.Printf("bddserve: listening on %s (quota=%d deadline=%v queue=%d)",
		srv.BoundAddr, *quota, *deadline, *queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("bddserve: %v; draining (up to %v)", got, *drain)
	start := time.Now()
	if err := srv.Close(); err != nil {
		log.Printf("bddserve: shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("bddserve: drained in %v", time.Since(start).Round(time.Millisecond))
}
