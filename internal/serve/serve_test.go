package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

// newTestServer spins up the full API on an ephemeral listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// call issues one JSON request and decodes the response body into out
// (unless out is nil). It returns the status code.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// counterNetlist reads the repo's 3-bit counter fixture.
func counterNetlist(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/counter.net")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// multiplierNetlist serializes an n×n multiplier — a combinational model
// whose output BDDs are big enough to trip small node quotas.
func multiplierNetlist(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := circuit.Write(&buf, model.MultiplierNetlist(n)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTenantLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL + "/v1/tenants"

	var info TenantInfo
	if st := call(t, "PUT", base+"/alice", CreateTenantRequest{Quota: 5000}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if info.ID != "alice" || info.Quota != 5000 {
		t.Fatalf("create: info %+v", info)
	}
	if st := call(t, "PUT", base+"/alice", nil, nil); st != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", st)
	}
	if st := call(t, "GET", base+"/nosuch", nil, nil); st != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", st)
	}
	// A field the request does not have is refused: a tenant's computed
	// table has no client-set size.
	if st := call(t, "PUT", base+"/bob", `{"cache_bits":64}`, nil); st != http.StatusBadRequest {
		t.Fatalf("create with cache_bits 64: status %d, want 400", st)
	}
	var listed []TenantInfo
	if st := call(t, "GET", base, nil, &listed); st != http.StatusOK || len(listed) != 1 {
		t.Fatalf("list: status %d, %d tenants", st, len(listed))
	}
	if st := call(t, "DELETE", base+"/alice", nil, nil); st != http.StatusNoContent {
		t.Fatalf("delete: status %d", st)
	}
	if st := call(t, "GET", base+"/alice", nil, nil); st != http.StatusNotFound {
		t.Fatalf("deleted tenant still answers: status %d", st)
	}
}

// TestBodyLimit: MaxBodyBytes bounds every request body, JSON as well as
// netlists, and a body over it is refused with 413 before it has any
// effect.
func TestBodyLimit(t *testing.T) {
	const limit = 1024
	_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	base := ts.URL + "/v1/tenants"
	pad := strings.Repeat(" ", 2*limit)

	if st := call(t, "PUT", base+"/a", `{"quota": 5000`+pad+`}`, nil); st != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized create: status %d, want 413", st)
	}
	if st := call(t, "GET", base+"/a", nil, nil); st != http.StatusNotFound {
		t.Errorf("oversized create made the tenant: status %d, want 404", st)
	}

	if st := call(t, "PUT", base+"/b", nil, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := call(t, "POST", base+"/b/ops",
		`{"op": "not", "args": ["x"], "result": "y"`+pad+`}`, nil); st != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ops: status %d, want 413", st)
	}
	// Cut at the limit, the netlist ends mid-line: the limit, not the
	// fragment's parse error, is what the client must hear.
	nl := multiplierNetlist(t, 4)
	if len(nl) <= 2*limit {
		t.Fatalf("multiplier netlist is only %d bytes", len(nl))
	}
	if st := call(t, "POST", base+"/b/netlist", nl, nil); st != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized netlist: status %d, want 413", st)
	}
	var funcs []FuncInfo
	if st := call(t, "GET", base+"/b/funcs", nil, &funcs); st != http.StatusOK || len(funcs) != 0 {
		t.Errorf("after oversized requests: status %d, functions %v", st, funcs)
	}
}

func TestBuildOpsCountSampleRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL + "/v1/tenants/alice"
	if st := call(t, "PUT", base, nil, nil); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}
	var env Envelope
	if st := call(t, "POST", base+"/netlist", counterNetlist(t), &env); st != http.StatusOK {
		t.Fatalf("netlist: %d", st)
	}
	if env.Degraded || env.Tenant != "alice" {
		t.Fatalf("netlist envelope: %+v", env)
	}

	// tc = q0 & q1 & q2 over 7 variables (3 state + 3 next + 1 input):
	// 2^7 / 8 = 16 minterms.
	type countEnv struct {
		Envelope
		Result CountResult `json:"result"`
	}
	var ce countEnv
	if st := call(t, "POST", base+"/count",
		CountRequest{Target: "tc", Mode: "exact"}, &ce); st != http.StatusOK {
		t.Fatalf("count: %d", st)
	}
	if ce.Result.Exact != "16" {
		t.Fatalf("count exact = %q, want 16", ce.Result.Exact)
	}
	if st := call(t, "POST", base+"/count",
		CountRequest{Target: "tc", Mode: "fraction"}, &ce); st != http.StatusOK || ce.Result.Fraction != 0.125 {
		t.Fatalf("count fraction = %v (status %d), want 0.125", ce.Result.Fraction, st)
	}

	// NOT then AND with the complement: empty function.
	if st := call(t, "POST", base+"/ops",
		OpRequest{Op: "not", Args: []string{"tc"}, Result: "ntc"}, &env); st != http.StatusOK {
		t.Fatalf("not: %d", st)
	}
	if st := call(t, "POST", base+"/ops",
		OpRequest{Op: "and", Args: []string{"tc", "ntc"}, Result: "empty"}, &env); st != http.StatusOK {
		t.Fatalf("and: %d", st)
	}
	if st := call(t, "POST", base+"/count",
		CountRequest{Target: "empty", Mode: "exact"}, &ce); st != http.StatusOK || ce.Result.Exact != "0" {
		t.Fatalf("count of contradiction = %q (status %d), want 0", ce.Result.Exact, st)
	}

	// Bad requests are 4xx, not 5xx.
	if st := call(t, "POST", base+"/ops",
		OpRequest{Op: "nand", Args: []string{"tc", "ntc"}, Result: "x"}, nil); st != http.StatusBadRequest {
		t.Fatalf("unknown op: %d, want 400", st)
	}
	if st := call(t, "POST", base+"/count",
		CountRequest{Target: "nosuch"}, nil); st != http.StatusNotFound {
		t.Fatalf("unknown function: %d, want 404", st)
	}

	// Samples: 7 bits each, and every draw satisfies tc (assignment ends
	// up in the accepted set — spot-check the count field instead of the
	// variable mapping, which the wire format doesn't expose).
	type sampleEnv struct {
		Envelope
		Result SampleResult `json:"result"`
	}
	var se sampleEnv
	if st := call(t, "POST", base+"/sample",
		SampleRequest{Target: "tc", N: 5, Seed: 7}, &se); st != http.StatusOK {
		t.Fatalf("sample: %d", st)
	}
	if se.Result.Count != "16" || len(se.Result.Samples) != 5 {
		t.Fatalf("sample result: %+v", se.Result)
	}
	for _, smp := range se.Result.Samples {
		if len(smp) != 7 {
			t.Fatalf("sample %q has %d bits, want 7", smp, len(smp))
		}
	}
}

func TestApproxDecompReach(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL + "/v1/tenants/bob"
	call(t, "PUT", base, nil, nil)
	call(t, "POST", base+"/netlist", multiplierNetlist(t, 5), nil)

	var funcs []FuncInfo
	if st := call(t, "GET", base+"/funcs", nil, &funcs); st != http.StatusOK || len(funcs) == 0 {
		t.Fatalf("funcs: status %d, %d functions", st, len(funcs))
	}
	target := funcs[len(funcs)-1].Name // high product bit: widest BDD

	type approxEnv struct {
		Envelope
		Result ApproxResult `json:"result"`
	}
	for _, op := range []string{"rua", "sp", "hb", "ua", "c1", "c2"} {
		var ae approxEnv
		st := call(t, "POST", base+"/approx",
			ApproxRequest{Op: op, Target: target, Threshold: 10, Result: "approx_" + op}, &ae)
		if st != http.StatusOK {
			t.Fatalf("approx %s: status %d", op, st)
		}
		if ae.Result.NodesOut > ae.Result.NodesIn {
			t.Errorf("approx %s grew: %d -> %d nodes", op, ae.Result.NodesIn, ae.Result.NodesOut)
		}
		if ae.Result.MassRetained < 0 || ae.Result.MassRetained > 1+1e-9 {
			t.Errorf("approx %s mass retained %v outside [0,1]", op, ae.Result.MassRetained)
		}
	}

	type decompEnv struct {
		Envelope
		Result DecompResult `json:"result"`
	}
	for _, sel := range []string{"cofactor", "band", "disjoint", "mcmillan"} {
		var de decompEnv
		st := call(t, "POST", base+"/decomp",
			DecompRequest{Selector: sel, Target: target}, &de)
		if st != http.StatusOK {
			t.Fatalf("decomp %s: status %d", sel, st)
		}
		if len(de.Result.FactorNodes) == 0 {
			t.Errorf("decomp %s: no factors", sel)
		}
	}

	// Reachability needs latches; the multiplier has none, so this must be
	// a clean client error...
	if st := call(t, "POST", base+"/reach", ReachRequest{}, nil); st >= 500 || st == http.StatusOK {
		t.Fatalf("reach on combinational model: status %d, want 4xx", st)
	}

	// ...and the counter traverses fully: 8 states in 8 iterations or less.
	cbase := ts.URL + "/v1/tenants/carol"
	call(t, "PUT", cbase, nil, nil)
	call(t, "POST", cbase+"/netlist", counterNetlist(t), nil)
	type reachEnv struct {
		Envelope
		Result ReachResult `json:"result"`
	}
	for _, mode := range []string{"bfs", "hd"} {
		var re reachEnv
		if st := call(t, "POST", cbase+"/reach",
			ReachRequest{Mode: mode, Result: "reached_" + mode}, &re); st != http.StatusOK {
			t.Fatalf("reach %s: status %d", mode, st)
		}
		if !re.Result.Completed || re.Result.States != 8 {
			t.Fatalf("reach %s: %+v", mode, re.Result)
		}
		if re.Degraded {
			t.Fatalf("reach %s degraded without budget pressure", mode)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := ts.URL + "/v1/tenants/a"
	call(t, "PUT", a, nil, nil)
	call(t, "POST", a+"/netlist", counterNetlist(t), nil)
	call(t, "POST", a+"/ops", OpRequest{Op: "or", Args: []string{"tc", "tc"}, Result: "tc2"}, nil)

	resp, err := http.Get(a + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}

	b := ts.URL + "/v1/tenants/b"
	call(t, "PUT", b, nil, nil)
	type restoreEnv struct {
		Envelope
		Result RestoreResult `json:"result"`
	}
	var re restoreEnv
	if st := call(t, "POST", b+"/restore", snap, &re); st != http.StatusOK {
		t.Fatalf("restore: status %d", st)
	}
	if len(re.Result.Functions) != 2 {
		t.Fatalf("restore: functions %+v, want tc and tc2", re.Result.Functions)
	}
	type countEnv struct {
		Envelope
		Result CountResult `json:"result"`
	}
	var ce countEnv
	if st := call(t, "POST", b+"/count",
		CountRequest{Target: "tc", Mode: "exact"}, &ce); st != http.StatusOK || ce.Result.Exact != "16" {
		t.Fatalf("restored count = %q (status %d), want 16", ce.Result.Exact, st)
	}
	// A restored tenant can't also take a netlist.
	if st := call(t, "POST", b+"/netlist", counterNetlist(t), nil); st != http.StatusConflict {
		t.Fatalf("netlist after restore: status %d, want 409", st)
	}
}

// TestBudgetDegrade: a tenant whose quota is already saturated by its
// compiled circuit gets a degraded-but-sound answer for a budgeted op —
// with the degradation marker in the envelope, the loss in the quality
// ledger, and the metrics surface intact.
func TestBudgetDegrade(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	nl := multiplierNetlist(t, 5)

	// Generous tenant: exact answers, no degradation.
	big := ts.URL + "/v1/tenants/big"
	call(t, "PUT", big, CreateTenantRequest{Quota: 1 << 22}, nil)
	call(t, "POST", big+"/netlist", nl, nil)
	// Tiny tenant: compile is unbudgeted (the circuit is the working set),
	// but the quota is far below the compiled size, so the next budgeted
	// operation aborts immediately and must be degraded.
	tiny := ts.URL + "/v1/tenants/tiny"
	call(t, "PUT", tiny, CreateTenantRequest{Quota: 32}, nil)
	call(t, "POST", tiny+"/netlist", nl, nil)

	var funcs []FuncInfo
	call(t, "GET", big+"/funcs", nil, &funcs)
	if len(funcs) < 2 {
		t.Fatalf("multiplier funcs: %+v", funcs)
	}
	x, y := funcs[len(funcs)-1].Name, funcs[len(funcs)-2].Name
	op := OpRequest{Op: "and", Args: []string{x, y}, Result: "both"}

	type opEnv struct {
		Envelope
		Result FuncInfo `json:"result"`
	}
	var exact, degraded opEnv
	if st := call(t, "POST", big+"/ops", op, &exact); st != http.StatusOK || exact.Degraded {
		t.Fatalf("big tenant: status %d degraded=%v", st, exact.Degraded)
	}
	if st := call(t, "POST", tiny+"/ops", op, &degraded); st != http.StatusOK {
		t.Fatalf("tiny tenant: status %d", st)
	}
	if !degraded.Degraded || degraded.DegradeReason == "" {
		t.Fatalf("tiny tenant envelope not marked degraded: %+v", degraded.Envelope)
	}

	// Soundness proxy across tenants: an under-approximation never counts
	// more minterms than the exact answer.
	type countEnv struct {
		Envelope
		Result CountResult `json:"result"`
	}
	var ce, cd countEnv
	call(t, "POST", big+"/count", CountRequest{Target: "both", Mode: "fraction"}, &ce)
	call(t, "POST", tiny+"/count", CountRequest{Target: "both", Mode: "fraction"}, &cd)
	if cd.Result.Fraction > ce.Result.Fraction+1e-12 {
		t.Fatalf("degraded fraction %v exceeds exact %v — not an under-approximation",
			cd.Result.Fraction, ce.Result.Fraction)
	}

	// The loss is on the starved tenant's ledger as a "degrade" op record,
	// and not on the generous tenant's.
	if n := degradeRecords(t, tiny); n == 0 {
		t.Fatal("no degrade record on the tiny tenant's quality ledger")
	}
	if n := degradeRecords(t, big); n != 0 {
		t.Fatalf("big tenant's quality ledger holds %d degrade records", n)
	}

	// The degradation shows up on /metrics, and the page lints clean.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape, err := obs.ParsePrometheus(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("metrics unparseable: %v", err)
	}
	if problems := obs.LintPrometheus(scrape); len(problems) != 0 {
		t.Fatalf("metrics lint: %v", problems)
	}
	text := string(page)
	for _, want := range []string{
		`serve_tenant_degrades_total{tenant="tiny"} 1`,
		`serve_tenant_degrades_total{tenant="big"} 0`,
		"serve_degrades_total 1",
		`quality_approx_degrade_mass_permille_count{tenant="tiny"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	_ = s
}

// degradeRecords returns how many approx.degrade records the tenant at
// base (its /v1/tenants/{id} URL) has on its quality ledger.
func degradeRecords(t *testing.T, base string) int64 {
	t.Helper()
	var snap obs.LedgerSnapshot
	if st := call(t, "GET", base+"/quality", nil, &snap); st != http.StatusOK {
		t.Fatalf("%s/quality: status %d", base, st)
	}
	for _, agg := range snap.PerOp {
		if agg.Key == "approx.degrade" {
			return agg.Count
		}
	}
	return 0
}

// starveAndDegrade creates a tenant with a 32-node quota at base, uploads a
// multiplier far larger than that, and runs one AND, which must come back
// budget-degraded.
func starveAndDegrade(t *testing.T, base string) {
	t.Helper()
	call(t, "PUT", base, CreateTenantRequest{Quota: 32}, nil)
	call(t, "POST", base+"/netlist", multiplierNetlist(t, 5), nil)
	var env Envelope
	op := OpRequest{Op: "and", Args: []string{"p9", "p8"}, Result: "hi"}
	if st := call(t, "POST", base+"/ops", op, &env); st != http.StatusOK || !env.Degraded {
		t.Fatalf("%s/ops: status %d degraded=%v", base, st, env.Degraded)
	}
}

// TestServersKeepTheirOwnQuality: two Servers in one process never share
// telemetry. Creating the second leaves the first's tenant quality alone,
// neither sees the other's degrade records (even for a tenant of the same
// name), and the first still records after the second is closed.
func TestServersKeepTheirOwnQuality(t *testing.T) {
	_, ts1 := newTestServer(t, Config{})
	a1 := ts1.URL + "/v1/tenants/a"
	starveAndDegrade(t, a1)
	// One degraded AND files a record per shrunken operand.
	want := degradeRecords(t, a1)
	if want == 0 {
		t.Fatal("no degrade record on the first server's tenant")
	}

	s2 := New(Config{})
	ts2 := httptest.NewServer(s2.Handler())
	if n := degradeRecords(t, a1); n != want {
		t.Fatalf("first server's tenant has %d degrade records after a second New, want %d", n, want)
	}
	a2 := ts2.URL + "/v1/tenants/a"
	starveAndDegrade(t, a2)
	starveAndDegrade(t, ts2.URL+"/v1/tenants/b")
	if n := degradeRecords(t, a1); n != want {
		t.Fatalf("first server's tenant has %d degrade records after the second server degraded, want %d", n, want)
	}
	if n := degradeRecords(t, a2); n != want {
		t.Fatalf("second server's tenant has %d degrade records, want %d", n, want)
	}
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	b1 := ts1.URL + "/v1/tenants/b"
	starveAndDegrade(t, b1)
	if n := degradeRecords(t, b1); n != want {
		t.Fatalf("first server's tenant b has %d degrade records after the second closed, want %d", n, want)
	}
	if n := degradeRecords(t, a1); n != want {
		t.Fatalf("first server's tenant a has %d degrade records, want %d", n, want)
	}
}

// TestReachDegradeUnderQuota: a traversal that trips the tenant's node
// quota still answers 200 with a partial, sound reached set and a
// degradation marker (the engine absorbs the abort).
func TestReachDegradeUnderQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := circuit.Write(&buf, model.S5378(model.S5378Config{Units: 4, UnitWidth: 4})); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/tenants/t"
	call(t, "PUT", base, nil, nil)
	var env Envelope
	if st := call(t, "POST", base+"/netlist", buf.String(), &env); st != http.StatusOK {
		t.Fatalf("netlist: %d", st)
	}
	// Re-create the tenant with a quota just above the compiled size so
	// the traversal itself trips it: read the live count, then rebuild.
	var info TenantInfo
	call(t, "GET", base, nil, &info)
	call(t, "DELETE", base, nil, nil)
	call(t, "PUT", base, CreateTenantRequest{Quota: info.LiveNodes + 64}, nil)
	if st := call(t, "POST", base+"/netlist", buf.String(), nil); st != http.StatusOK {
		t.Fatal("recompile failed")
	}

	type reachEnv struct {
		Envelope
		Result ReachResult `json:"result"`
	}
	var re reachEnv
	if st := call(t, "POST", base+"/reach", ReachRequest{Mode: "bfs"}, &re); st != http.StatusOK {
		t.Fatalf("reach: status %d", st)
	}
	if re.Result.Completed {
		t.Fatal("traversal under a starved quota reported completion")
	}
	if !re.Degraded || re.DegradeReason == "" {
		t.Fatalf("starved traversal not marked degraded: %+v", re.Envelope)
	}
}

func TestAdmissionShedding(t *testing.T) {
	a := newAdmission(1, 50*time.Millisecond)
	ctx := context.Background()
	release, err := a.acquire(ctx)
	if err != nil {
		t.Fatalf("first acquire shed: %v", err)
	}
	// One waiter fits the queue and sheds on the deadline...
	done := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx)
		done <- err
	}()
	// ...and once it occupies the queue, the next request sheds instantly.
	time.Sleep(10 * time.Millisecond)
	if _, err := a.acquire(ctx); !strings.Contains(shedReason(err), "queue full") {
		t.Fatalf("overflow acquire: %v, want queue-full shed", err)
	}
	if err := <-done; !strings.Contains(shedReason(err), "wait deadline") {
		t.Fatalf("queued acquire: %v, want deadline shed", err)
	}
	release()
	if release2, err := a.acquire(ctx); err != nil {
		t.Fatalf("post-release acquire shed: %v", err)
	} else {
		release2()
	}
}

// shedReason is the reason of a *ShedError in err's chain ("" if none).
func shedReason(err error) string {
	var shed *ShedError
	if errors.As(err, &shed) {
		return shed.Reason
	}
	return ""
}

func TestShedMapsTo429(t *testing.T) {
	// ShedError → 429 with Retry-After, independent of the handler path.
	s := New(Config{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeError(rec, fmt.Errorf("wrapped: %w", &ShedError{Reason: "queue full", RetryAfter: 3 * time.Second}))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want 3", ra)
	}
}
