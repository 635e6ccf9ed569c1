package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/bench"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

// End-to-end checks that a session reaches the managers built deep inside
// the cmd and bench code paths: each test starts a session with a live
// endpoint on an ephemeral port and a trace file, runs a workload wired
// the way its cmd wires it, scrapes the endpoint, and validates the trace.

// fetch GETs path from the session's live endpoint.
func fetch(t *testing.T, s *obs.Session, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + s.BoundAddr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d:\n%s", path, resp.StatusCode, body)
	}
	return body
}

// scrape fetches and parses /metrics.
func scrape(t *testing.T, s *obs.Session) *obs.PromScrape {
	t.Helper()
	p, err := obs.ParsePrometheus(bytes.NewReader(fetch(t, s, "/metrics")))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return p
}

// closeAndReadTrace closes the session and validates its trace file.
func closeAndReadTrace(t *testing.T, s *obs.Session, path string) (obs.TraceSummary, []byte) {
	t.Helper()
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	return sum, data
}

// TestSessionWatchesTable2 is `tables -table 2 -obs ... -trace ...`: the
// corpus managers bench.Build makes report to the session, so two
// /metrics scrapes around the table lint clean and keep their counters
// monotone, /quality serves per-operator aggregates, and the trace
// carries the ledger's quality.op events.
func TestSessionWatchesTable2(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	sess, err := obs.Config{Trace: trace, Addr: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cfg := bench.SmallCorpus()
	cfg.Observe = sess
	fns, err := bench.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Release(fns)

	first := scrape(t, sess)
	bench.Table2(fns)
	second := scrape(t, sess)
	for i, p := range []*obs.PromScrape{first, second} {
		if problems := obs.LintPrometheus(p); len(problems) != 0 {
			t.Fatalf("scrape %d lint: %v", i+1, problems)
		}
	}
	if problems := obs.CheckCounterMonotonic(first, second); len(problems) != 0 {
		t.Fatalf("counters went backwards: %v", problems)
	}
	if v, ok := second.Value("quality_ops_total"); !ok || v == 0 {
		t.Fatalf("quality_ops_total = %v after Table 2, want > 0", v)
	}
	var snap obs.LedgerSnapshot
	if err := json.Unmarshal(fetch(t, sess, "/quality"), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.PerOp) == 0 {
		t.Fatal("/quality has no per_op aggregates")
	}

	if sum, _ := closeAndReadTrace(t, sess, trace); sum.ByName["quality.op"] == 0 {
		t.Fatalf("trace has no quality.op events: %v", sum.ByName)
	}
}

// TestConcurrentSessionsKeepTheirOwnRecords: two managers, each built with
// its own session, approximate at the same time (run it under -race). Each
// session's ledger and trace hold exactly its own manager's records.
func TestConcurrentSessionsKeepTheirOwnRecords(t *testing.T) {
	type run struct {
		op    string
		calls int
		apply func(m *bdd.Manager, f bdd.Ref) bdd.Ref
		trace string
		sess  *obs.Session
		m     *bdd.Manager
		f     bdd.Ref
	}
	runs := []*run{
		{op: "rua", calls: 7, apply: func(m *bdd.Manager, f bdd.Ref) bdd.Ref {
			return approx.RemapUnderApprox(m, f, 0, 1.0)
		}},
		{op: "sp", calls: 5, apply: func(m *bdd.Manager, f bdd.Ref) bdd.Ref {
			return approx.ShortPaths(m, f, 50)
		}},
	}
	dir := t.TempDir()
	for i, r := range runs {
		r.trace = filepath.Join(dir, fmt.Sprintf("trace%d.jsonl", i))
		sess, err := obs.Config{Trace: r.trace}.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		r.sess = sess
		const n = 16
		r.m = bdd.NewWithConfig(n, bdd.Config{Observer: sess.Observer()})
		vars := make([]int, n)
		for v := range vars {
			vars[v] = v
		}
		r.f = model.HWB(r.m, vars)
	}

	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *run) {
			defer wg.Done()
			for i := 0; i < r.calls; i++ {
				r.m.Deref(r.apply(r.m, r.f))
			}
		}(r)
	}
	wg.Wait()

	for _, r := range runs {
		snap := obs.Of(r.m).Ledger().Snapshot()
		if snap.Ops != int64(r.calls) || len(snap.PerOp) != 1 || snap.PerOp[0].Key != "approx."+r.op {
			t.Errorf("%s session ledger: %d ops over %+v, want %d approx.%s only", r.op, snap.Ops, snap.PerOp, r.calls, r.op)
		}
		r.m.Deref(r.f)
		sum, data := closeAndReadTrace(t, r.sess, r.trace)
		if got := sum.ByName["quality.op"]; got != r.calls {
			t.Errorf("%s trace: %d quality.op events, want %d", r.op, got, r.calls)
		}
		for name := range sum.ByName {
			if strings.HasPrefix(name, "approx.") && name != "approx."+r.op {
				t.Errorf("%s trace holds the other manager's %s spans", r.op, name)
			}
		}
		if want := `"op":"` + r.op + `"`; bytes.Count(data, []byte(`"op":`)) != bytes.Count(data, []byte(want)) {
			t.Errorf("%s trace holds ledger records of another operator", r.op)
		}
	}
}
