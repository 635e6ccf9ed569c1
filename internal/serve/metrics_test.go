package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"bddkit/internal/obs"
)

// TestMetricsScrapeDuringOps: /metrics never reads a tenant's manager
// while an operation mutates it. One goroutine scrapes /metrics in a loop
// while another runs 2,000 and/xor ops on the 5-bit multiplier's outputs
// in one tenant; under -race a gauge that read the manager itself is a
// reported race. Once the tenant is idle, a scrape serves its current
// live-node count and cache traffic. Requests go straight to the handler,
// as in TestSoakReturnsToBaseline, so no connection goroutines outlive
// the test.
func TestMetricsScrapeDuringOps(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	do := direct(t, s.Handler())
	base := "/v1/tenants/alice"
	if rec := do("PUT", base, nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	if rec := do("POST", base+"/netlist", multiplierNetlist(t, 5)); rec.Code != http.StatusOK {
		t.Fatalf("netlist: status %d: %s", rec.Code, rec.Body)
	}

	stop := make(chan struct{})
	stopped := make(chan struct{})
	var scrapes atomic.Int64
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rec := do("GET", "/metrics", nil); rec.Code != http.StatusOK {
				t.Errorf("scrape: status %d", rec.Code)
				return
			}
			scrapes.Add(1)
		}
	}()
	for i := 0; i < 2000; i++ {
		op := OpRequest{Op: "and", Result: "r"}
		if i%2 == 1 {
			op.Op = "xor"
		}
		a := i % 10
		op.Args = []string{fmt.Sprintf("p%d", a), fmt.Sprintf("p%d", (a+1+i/10)%10)}
		if rec := do("POST", base+"/ops", op); rec.Code != http.StatusOK {
			t.Fatalf("op %d (%s): status %d: %s", i, op.Op, rec.Code, rec.Body)
		}
	}
	close(stop)
	<-stopped
	if scrapes.Load() == 0 {
		t.Fatal("no scrape ran alongside the ops")
	}

	var info TenantInfo
	if err := json.Unmarshal(do("GET", base, nil).Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	p, err := obs.ParsePrometheus(do("GET", "/metrics", nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	if live, ok := p.Value("bdd_live_nodes"); !ok || int(live) != info.LiveNodes {
		t.Fatalf("idle tenant serves bdd_live_nodes %v (present %v), manager holds %d", live, ok, info.LiveNodes)
	}
	if lookups, ok := p.Value("bdd_cache_lookups"); !ok || lookups == 0 {
		t.Fatalf("idle tenant serves bdd_cache_lookups %v (present %v) after 2,000 ops", lookups, ok)
	}
}

// direct returns a function that sends one request straight to h and
// returns the recorded response; a non-string body is sent as JSON.
func direct(t *testing.T, h http.Handler) func(method, path string, body any) *httptest.ResponseRecorder {
	return func(method, path string, body any) *httptest.ResponseRecorder {
		var rd *bytes.Reader
		switch b := body.(type) {
		case nil:
			rd = bytes.NewReader(nil)
		case string:
			rd = bytes.NewReader([]byte(b))
		default:
			buf, err := json.Marshal(b)
			if err != nil {
				t.Error(err)
			}
			rd = bytes.NewReader(buf)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		return rec
	}
}

// TestTenantCacheWithinArena: a tenant's computed table is sized from its
// node arena, which its quota bounds, so a small tenant gets a small
// table. A tenant with quota 1,000 runs a burst of /ops requests, and
// after each hundred its bdd_cache_entries must stay within the table's
// ceiling of eight entries per slot of its bdd_arena_capacity.
func TestTenantCacheWithinArena(t *testing.T) {
	const perSlot = 8
	s := New(Config{})
	defer s.Close()
	do := direct(t, s.Handler())
	base := "/v1/tenants/small"
	if rec := do("PUT", base, CreateTenantRequest{Quota: 1000}); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do("POST", base+"/netlist", multiplierNetlist(t, 4)); rec.Code != http.StatusOK {
		t.Fatalf("netlist: status %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < 1000; i++ {
		op := OpRequest{Op: []string{"and", "or", "xor"}[i%3], Result: fmt.Sprintf("r%d", i%4)}
		a := i % 8
		op.Args = []string{fmt.Sprintf("p%d", a), fmt.Sprintf("p%d", (a+1+i/8)%8)}
		if rec := do("POST", base+"/ops", op); rec.Code != http.StatusOK {
			t.Fatalf("op %d (%s): status %d: %s", i, op.Op, rec.Code, rec.Body)
		}
		if i%100 != 99 {
			continue
		}
		p, err := obs.ParsePrometheus(do("GET", "/metrics", nil).Body)
		if err != nil {
			t.Fatal(err)
		}
		entries, ok1 := p.Value("bdd_cache_entries")
		capacity, ok2 := p.Value("bdd_arena_capacity")
		if !ok1 || !ok2 || capacity == 0 {
			t.Fatalf("after %d ops: bdd_cache_entries %v (present %v), bdd_arena_capacity %v (present %v)",
				i+1, entries, ok1, capacity, ok2)
		}
		if entries > perSlot*capacity {
			t.Fatalf("after %d ops: %v cache entries for a %v-slot arena, past %d per slot",
				i+1, entries, capacity, perSlot)
		}
	}
}
