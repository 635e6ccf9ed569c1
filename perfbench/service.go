package main

// The service workload drives an in-process bddserve (serve.Server behind
// httptest on loopback) with two closed-loop clients: each sends its next
// request when the previous reply has arrived, as API callers that wait
// for their answers do. It is the only workload that exercises HTTP/JSON,
// admission and the budget-degrade path. Library work per request is
// small, so serving overhead and waits for a tenant's single operation
// slot dominate; the computed caches stay warm, as they do for repeated
// queries in a real service.
//
// Three Workers=1 tenants are set up: gen-a (a 7-bit multiplier) and
// gen-b (an s1269 analogue) are generous, and starved (a 6-bit
// multiplier) has a node quota just above its compiled netlist, so its
// and/or operations degrade. Reads (exact and weighted counts, samples,
// unbound approximations, decompositions) go to the generous tenants.
// Writes are bound and/or operations that reuse a fixed set of result
// names per client, so live nodes stay bounded; tenant create + netlist
// upload + drop; and a snapshot of a generous tenant restored into a fresh
// tenant. gen-b also serves small high-density reach requests. Every
// request has an expected 2xx outcome: xor, not, decomp and restore, which
// return 422 on a starved tenant by design, are never sent there, and
// clients never retry a 429, so a shed request counts as failed.
//
// No traffic data exists to weight the request classes by, so the
// schedule gives them equal shares: it runs in rounds of one script per
// class (serviceClasses) in a seed-shuffled order, and the seed picks each
// script's tenant, output and operator uniformly. Reach, of which the
// workload sends only a few, joins one round in reachEvery.
//
// The window is run in segments of calibrateEvery. Both clients stop at
// the end of each segment and the reference workload is timed
// (calibrate.go) before the next begins, so the window's times are scaled
// by the machine's speed during the window; the set-ups have calibrations
// of their own.
//
// Replies are checked after the measurement window, against references
// the benchmark computes on its own compiled copy of each netlist: exact
// counts equal count.Minterms (itself confirmed against the function's
// truth table under oracle.Eval), degraded answers never count more than the
// exact answer, samples satisfy oracle.Eval, and the server's
// serve_requests_total, serve_sheds_total and serve_degrades_total in
// /metrics equal the clients' own tallies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/model"
	"bddkit/internal/obs"
	"bddkit/internal/oracle"
	"bddkit/internal/reach"
	"bddkit/internal/serve"
)

const (
	serviceClients  = 2
	serviceSetups   = 5
	servicePassReqs = 500 // requests per service "pass"
	sampleN         = 16  // samples per sample request
	starvedHeadroom = 256 // starved tenant's quota above its compiled netlist
	reachEvery      = 4   // rounds per reach script
)

// serviceClasses are the script kinds of one round of the schedule.
var serviceClasses = []string{
	"count", "weighted", "sample", "approx", "decomp", // reads
	"ops", "starved-ops", "lifecycle", "snapshot", // writes
}

// tenantSpec is one long-lived tenant and the netlist it serves.
type tenantSpec struct {
	id      string
	netlist *circuit.Netlist
	starved bool
}

// reference is the benchmark's own compiled copy of a tenant's netlist,
// with the expected answers the replies are checked against.
type reference struct {
	spec  tenantSpec
	text  []byte
	c     *circuit.Compiled
	names []string
	funcs map[string]bdd.Ref
	exact map[string]*big.Int // output -> exact count
	wt    map[string]float64  // output -> weighted count at serviceBias
	nodes map[string]int      // output -> DAG size
	frac  map[string]float64  // output -> minterm fraction

	// Lazily computed answers of and/or operations, keyed by op and args.
	mu     sync.Mutex
	combos map[string]comboRef
	states float64 // reachable states (sequential netlists only)
}

type comboRef struct {
	nodes int
	exact *big.Int
}

const serviceBias = 0.3

// newReference compiles the copy and computes its reference answers; the
// truth-table confirmation of each count is one checked operation in v.
func newReference(root *span, spec tenantSpec, v *verdict) (*reference, error) {
	var buf bytes.Buffer
	if err := circuit.Write(&buf, spec.netlist); err != nil {
		return nil, err
	}
	// The copy compiles the uploaded text exactly as the server does.
	nl, err := circuit.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	call := beginCall(root, "circuit.compile", nil, obs.Str("tenant", spec.id))
	c, err := circuit.Compile(nl, circuit.CompileOptions{BDDConfig: &bdd.Config{Workers: 1}})
	call.end()
	if err != nil {
		return nil, err
	}
	r := &reference{
		spec: spec, text: buf.Bytes(), c: c, names: nl.OutName,
		funcs: make(map[string]bdd.Ref), exact: make(map[string]*big.Int),
		wt: make(map[string]float64), nodes: make(map[string]int),
		frac: make(map[string]float64), combos: make(map[string]comboRef),
	}
	m := c.M
	for i, name := range nl.OutName {
		f := c.Outputs[i]
		n, err := count.Minterms(m, f, m.NumVars())
		if err != nil {
			return nil, err
		}
		if err := confirmCount(m, f, n); err != nil {
			v.record(fmt.Errorf("reference %s/%s: %w", spec.id, name, err))
		} else {
			v.record(nil)
		}
		r.funcs[name] = f
		r.exact[name] = n
		r.wt[name] = count.Weighted(m, f, func(int) float64 { return serviceBias })
		r.nodes[name] = m.DagSize(f)
		r.frac[name] = count.Fraction(m, f)
	}
	if len(nl.Latches) > 0 {
		tr, err := reach.NewTR(c, reach.DefaultTROptions())
		if err != nil {
			return nil, err
		}
		res := tr.BFS(c.Init, reach.Options{})
		r.states = res.States
		m.Deref(res.Reached)
		tr.Release()
	}
	return r, nil
}

// confirmCount checks a reference count against f's truth table over its
// support, evaluated with oracle.Eval, which shares no code with
// internal/count.
func confirmCount(m *bdd.Manager, f bdd.Ref, n *big.Int) error {
	vars := m.SupportVars(f)
	if len(vars) > oracle.MaxExhaustiveVars {
		return fmt.Errorf("support of %d variables is too wide to enumerate", len(vars))
	}
	t := oracle.TableOf(m, f, vars)
	ones := int64(0)
	for i := 0; i < t.Len(); i++ {
		if t.Get(i) {
			ones++
		}
	}
	want := new(big.Int).Lsh(big.NewInt(ones), uint(m.NumVars()-len(vars)))
	if n.Cmp(want) != 0 {
		return fmt.Errorf("count.Minterms gives %v, the truth table %v", n, want)
	}
	return nil
}

// combo returns the exact answer of op(a, b) on the copy.
func (r *reference) combo(op, a, b string) (comboRef, error) {
	key := op + "/" + a + "/" + b
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.combos[key]; ok {
		return v, nil
	}
	m := r.c.M
	var g bdd.Ref
	if op == "and" {
		g = m.And(r.funcs[a], r.funcs[b])
	} else {
		g = m.Or(r.funcs[a], r.funcs[b])
	}
	defer m.Deref(g)
	n, err := count.Minterms(m, g, m.NumVars())
	if err == nil {
		err = confirmCount(m, g, n)
	}
	if err != nil {
		return comboRef{}, err
	}
	v := comboRef{nodes: m.DagSize(g), exact: n}
	r.combos[key] = v
	return v, nil
}

// envelope mirrors serve.Envelope with the result left raw.
type envelope struct {
	Degraded  bool            `json:"degraded"`
	Result    json.RawMessage `json:"result"`
	ElapsedNS int64           `json:"elapsed_ns"`
}

// reply is one request as the client saw it.
type reply struct {
	class    string
	method   string
	status   int
	body     []byte
	env      *envelope // nil when the reply is not an envelope
	ms       float64
	done     time.Time
	transErr error
}

// httpClient sends requests and counts them, so the count can be compared
// with the server's serve_requests_total.
type httpClient struct {
	base string
	hc   *http.Client
	sent atomic.Int64
	next atomic.Uint64 // request ids for spans
}

// do sends one request and reads the whole reply. Under a non-nil log it
// records a span named serve.<class> under parent (nil for a root span)
// carrying the request id.
func (c *httpClient) do(log *spanLog, parent *span, class, method, path string, body []byte, attrs ...obs.Attr) reply {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{class: class, transErr: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := c.next.Add(1)
	sp := log.begin(parent, "serve."+class, append(attrs, obs.I64("req", int64(id)))...)
	c.sent.Add(1)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	r := reply{class: class, method: method}
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.done = time.Now()
	r.ms = millis(r.done.Sub(t0))
	r.transErr = err
	if err == nil && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		var env envelope
		if json.Unmarshal(r.body, &env) == nil && env.ElapsedNS > 0 {
			r.env = &env
		}
	}
	if sp != nil {
		extra := []obs.Attr{obs.Int("status", r.status)}
		if r.env != nil {
			extra = append(extra, obs.I64("server_ns", r.env.ElapsedNS), obs.Bool("degraded", r.env.Degraded))
		}
		sp.endAt(r.done, extra...)
	}
	return r
}

func (c *httpClient) jsonBody(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// script is one unit of the request schedule: a few requests one client
// sends back to back, and the replies it got.
type script struct {
	kind    string
	tenant  string
	target  string
	op      string
	args    [2]string
	seed    int64
	n       int
	seq     int // position in the schedule
	client  int
	replies []reply
}

// schedule draws scripts from the seed in rounds (see the top of this
// file); either client may take the next one.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	refs   map[string]*reference
	round  []string // kinds of the current round not yet drawn
	rounds int
	seq    int
}

func (s *schedule) next() *script {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.round) == 0 {
		s.round = append([]string(nil), serviceClasses...)
		if s.rounds%reachEvery == 0 {
			s.round = append(s.round, "reach")
		}
		s.rounds++
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	kind := s.round[0]
	s.round = s.round[1:]
	sc := &script{kind: kind, seed: s.rng.Int63(), seq: s.seq}
	s.seq++
	generousTenant := func() string { return []string{"gen-a", "gen-b"}[s.rng.Intn(2)] }
	generous := func() {
		sc.tenant = generousTenant()
		names := s.refs[sc.tenant].names
		sc.target = names[s.rng.Intn(len(names))]
	}
	pair := func(tenant string) {
		sc.tenant = tenant
		names := s.refs[tenant].names
		sc.op = [2]string{"and", "or"}[s.rng.Intn(2)]
		sc.args = [2]string{names[s.rng.Intn(len(names))], names[s.rng.Intn(len(names))]}
		sc.n = s.rng.Intn(2) // result slot
	}
	switch kind {
	case "count", "weighted", "sample":
		generous()
	case "approx":
		generous()
		sc.op = []string{"rua", "sp", "hb", "ua", "c1", "c2"}[s.rng.Intn(6)]
	case "decomp":
		generous()
		sc.op = []string{"cofactor", "band", "disjoint", "mcmillan"}[s.rng.Intn(4)]
	case "ops":
		pair(generousTenant())
	case "starved-ops":
		pair("starved")
	case "reach":
		sc.tenant = "gen-b" // the one sequential netlist
	case "snapshot":
		sc.tenant = generousTenant()
	}
	return sc
}

// run sends the script's requests.
func (sc *script) run(c *httpClient, log *spanLog, refs map[string]*reference) {
	t := "/v1/tenants/" + sc.tenant
	send := func(class, method, path string, body []byte) reply {
		r := c.do(log, nil, class, method, path, body, obs.Int("client", sc.client), obs.Str("tenant", sc.tenant))
		sc.replies = append(sc.replies, r)
		return r
	}
	switch sc.kind {
	case "count":
		send("count", "POST", t+"/count", c.jsonBody(serve.CountRequest{Target: sc.target, Mode: "exact"}))
	case "weighted":
		send("count", "POST", t+"/count", c.jsonBody(serve.CountRequest{Target: sc.target, Mode: "weighted", Bias: serviceBias}))
	case "sample":
		send("sample", "POST", t+"/sample", c.jsonBody(serve.SampleRequest{Target: sc.target, N: sampleN, Seed: sc.seed}))
	case "approx":
		send("approx", "POST", t+"/approx", c.jsonBody(serve.ApproxRequest{
			Op: sc.op, Target: sc.target, Threshold: refs[sc.tenant].nodes[sc.target] / 2,
		}))
	case "decomp":
		send("decomp", "POST", t+"/decomp", c.jsonBody(serve.DecompRequest{Selector: sc.op, Target: sc.target}))
	case "ops", "starved-ops":
		res := sc.resultName()
		r := send("ops", "POST", t+"/ops", c.jsonBody(serve.OpRequest{Op: sc.op, Args: sc.args[:], Result: res}))
		if sc.kind == "starved-ops" && r.status == http.StatusOK {
			send("count", "POST", t+"/count", c.jsonBody(serve.CountRequest{Target: res, Mode: "exact"}))
		}
	case "reach":
		send("reach", "POST", t+"/reach", c.jsonBody(serve.ReachRequest{Mode: "hd", Threshold: 100}))
	case "lifecycle":
		id := fmt.Sprintf("/v1/tenants/life-%d", sc.seq)
		if send("tenant", "PUT", id, c.jsonBody(serve.CreateTenantRequest{Workers: 1})).status == http.StatusCreated {
			send("upload", "POST", id+"/netlist", refs["life"].text)
			send("tenant", "DELETE", id, nil)
		}
	case "snapshot":
		snap := send("snapshot", "GET", t+"/snapshot", nil)
		id := fmt.Sprintf("/v1/tenants/restore-%d", sc.seq)
		if snap.status == http.StatusOK &&
			send("tenant", "PUT", id, c.jsonBody(serve.CreateTenantRequest{Workers: 1})).status == http.StatusCreated {
			send("restore", "POST", id+"/restore", snap.body)
			send("tenant", "DELETE", id, nil)
		}
		sc.replies[0].body = nil // the restore reply is what gets checked
	}
}

// resultName is the bound result of an and/or script: a fixed pair of
// names per client, so live nodes stay bounded and the clients never
// overwrite each other's results.
func (sc *script) resultName() string {
	return fmt.Sprintf("r-c%d-%d", sc.client, sc.n)
}

// check verifies the script's replies: one verdict per request.
func (sc *script) check(v *verdict, refs map[string]*reference) {
	ref := refs[sc.tenant]
	for _, r := range sc.replies {
		v.record(sc.checkReply(r, ref, refs))
	}
}

func (sc *script) checkReply(r reply, ref *reference, refs map[string]*reference) error {
	if r.transErr != nil {
		return fmt.Errorf("%s %s: %v", sc.kind, r.class, r.transErr)
	}
	want := map[string]int{"PUT": http.StatusCreated, "DELETE": http.StatusNoContent}[r.method]
	if want == 0 {
		want = http.StatusOK
	}
	if r.status != want {
		return fmt.Errorf("%s %s on %s: status %d, want %d: %.200s", sc.kind, r.class, sc.tenant, r.status, want, r.body)
	}
	if r.class == "tenant" || r.class == "snapshot" {
		return nil
	}
	if r.env == nil {
		return fmt.Errorf("%s %s: reply is not an envelope", sc.kind, r.class)
	}
	switch sc.kind {
	case "count", "weighted":
		var res serve.CountResult
		if err := json.Unmarshal(r.env.Result, &res); err != nil {
			return err
		}
		if sc.kind == "count" && res.Exact != ref.exact[sc.target].String() {
			return fmt.Errorf("count %s/%s: %s, want %v", sc.tenant, sc.target, res.Exact, ref.exact[sc.target])
		}
		if sc.kind == "weighted" && !near(res.Weighted, ref.wt[sc.target]) {
			return fmt.Errorf("weighted %s/%s: %g, want %g", sc.tenant, sc.target, res.Weighted, ref.wt[sc.target])
		}
	case "sample":
		var res serve.SampleResult
		if err := json.Unmarshal(r.env.Result, &res); err != nil {
			return err
		}
		if res.Count != ref.exact[sc.target].String() || len(res.Samples) != sampleN {
			return fmt.Errorf("sample %s/%s: count %s with %d samples, want %v with %d",
				sc.tenant, sc.target, res.Count, len(res.Samples), ref.exact[sc.target], sampleN)
		}
		m := ref.c.M
		for _, s := range res.Samples {
			a := make([]bool, len(s))
			for j := range s {
				a[j] = s[j] == '1'
			}
			if len(a) != m.NumVars() || !oracle.Eval(m, ref.funcs[sc.target], a) {
				return fmt.Errorf("sample %s/%s: %s does not satisfy the function", sc.tenant, sc.target, s)
			}
		}
	case "approx":
		var res serve.ApproxResult
		if err := json.Unmarshal(r.env.Result, &res); err != nil {
			return err
		}
		if res.NodesIn != ref.nodes[sc.target] || !near(res.MassIn, ref.frac[sc.target]) ||
			res.NodesOut > res.NodesIn || res.MassOut > res.MassIn*(1+1e-12) {
			return fmt.Errorf("approx %s %s/%s: %+v is not an under-approximation of the reference (%d nodes, mass %g)",
				sc.op, sc.tenant, sc.target, res, ref.nodes[sc.target], ref.frac[sc.target])
		}
	case "decomp":
		var res serve.DecompResult
		if err := json.Unmarshal(r.env.Result, &res); err != nil {
			return err
		}
		factors := len(res.FactorNodes)
		if res.NodesIn != ref.nodes[sc.target] || factors == 0 || (sc.op != "mcmillan" && factors != 2) {
			return fmt.Errorf("decomp %s %s/%s: %+v, want %d nodes in", sc.op, sc.tenant, sc.target, res, ref.nodes[sc.target])
		}
	case "ops", "starved-ops":
		want, err := ref.combo(sc.op, sc.args[0], sc.args[1])
		if err != nil {
			return err
		}
		if r.class == "ops" {
			var res serve.FuncInfo
			if err := json.Unmarshal(r.env.Result, &res); err != nil {
				return err
			}
			if !r.env.Degraded && res.Nodes != want.nodes {
				return fmt.Errorf("%s %s%v: %d nodes, want %d", sc.tenant, sc.op, sc.args, res.Nodes, want.nodes)
			}
			return nil
		}
		// The count of a starved tenant's result: exact when the
		// operation was exact, never more than exact when it degraded.
		var res serve.CountResult
		if err := json.Unmarshal(r.env.Result, &res); err != nil {
			return err
		}
		got, ok := new(big.Int).SetString(res.Exact, 10)
		degraded := sc.replies[0].env != nil && sc.replies[0].env.Degraded
		if !ok || got.Cmp(want.exact) > 0 || (!degraded && got.Cmp(want.exact) != 0) {
			return fmt.Errorf("%s %s%v (degraded %v): count %s, exact %v", sc.tenant, sc.op, sc.args, degraded, res.Exact, want.exact)
		}
	case "reach":
		var res serve.ReachResult
		if err := json.Unmarshal(r.env.Result, &res); err != nil {
			return err
		}
		if !res.Completed || res.States != ref.states {
			return fmt.Errorf("reach %s: %+v, want %g states", sc.tenant, res, ref.states)
		}
	case "lifecycle":
		return checkFuncs(r, refs["life"])
	case "snapshot":
		return checkFuncs(r, ref)
	}
	return nil
}

// checkFuncs verifies that an upload or restore reply lists every output
// of ref's netlist with its reference size.
func checkFuncs(r reply, ref *reference) error {
	var funcs []serve.FuncInfo
	if err := json.Unmarshal(r.env.Result, &funcs); err != nil {
		var restored serve.RestoreResult
		if err := json.Unmarshal(r.env.Result, &restored); err != nil {
			return err
		}
		funcs = restored.Functions
	}
	got := make(map[string]int, len(funcs))
	for _, f := range funcs {
		got[f.Name] = f.Nodes
	}
	for _, name := range ref.names {
		if got[name] != ref.nodes[name] {
			return fmt.Errorf("%s of %s: %s has %d nodes, want %d", r.class, ref.spec.id, name, got[name], ref.nodes[name])
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// server is one set-up: a started server with its tenants and uploads.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
	c   *httpClient
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close() //nolint:errcheck // httptest owns the listener; nothing is left to drain
}

// startServer is the timed part of a set-up: server start, tenant
// creation and the first uploads.
func startServer(log *spanLog, root *span, refs map[string]*reference, specs []tenantSpec, v *verdict) *server {
	srv := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	c := &httpClient{base: ts.URL, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients},
		Timeout:   time.Minute,
	}}
	s := &server{srv: srv, ts: ts, c: c}
	for _, spec := range specs {
		req := serve.CreateTenantRequest{Workers: 1}
		if spec.starved {
			req.Quota = refs[spec.id].c.M.NodeCount() + starvedHeadroom
		}
		r := c.do(log, root, "tenant", "PUT", "/v1/tenants/"+spec.id, c.jsonBody(req))
		v.record(expectStatus(r, http.StatusCreated))
		r = c.do(log, root, "upload", "POST", "/v1/tenants/"+spec.id+"/netlist", refs[spec.id].text)
		v.record(expectStatus(r, http.StatusOK))
	}
	return s
}

func expectStatus(r reply, want int) error {
	if r.transErr != nil {
		return r.transErr
	}
	if r.status != want {
		return fmt.Errorf("set-up %s: status %d, want %d: %.200s", r.class, r.status, want, r.body)
	}
	return nil
}

// scrape reads the server's /metrics page.
func (s *server) scrape(log *spanLog) (*obs.PromScrape, error) {
	r := s.c.do(log, nil, "metrics", "GET", "/metrics", nil)
	if r.transErr != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", r.status, r.transErr)
	}
	return obs.ParsePrometheus(bytes.NewReader(r.body))
}

// promValue sums the samples of a family whose labels contain label.
func promValue(p *obs.PromScrape, family, label string) float64 {
	var sum float64
	if f := p.Family(family); f != nil {
		for _, s := range f.Samples {
			if strings.Contains(s.Labels, label) {
				sum += s.Value
			}
		}
	}
	return sum
}

func runService(cfg *runConfig) (*outcome, error) {
	out := &outcome{workers: 1}
	specs := []tenantSpec{
		{id: "gen-a", netlist: model.MultiplierNetlist(7)},
		{id: "gen-b", netlist: model.S1269(model.S1269Small())},
		{id: "starved", netlist: model.MultiplierNetlist(6), starved: true},
	}
	lifeSpec := tenantSpec{id: "life", netlist: model.MultiplierNetlist(4)}

	var refs map[string]*reference
	var s *server
	for i := 0; i < serviceSetups; i++ {
		// Each set-up compiles the netlists twice: in the server during the
		// uploads, and here for reference, untimed.
		refRoot := cfg.log.begin(nil, "bench.reference", obs.Int("setup", i))
		refs = make(map[string]*reference)
		for _, spec := range append(specs, lifeSpec) {
			r, err := newReference(refRoot, spec, &out.verdict)
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", spec.id, err)
			}
			refs[spec.id] = r
		}
		refRoot.end()
		if s != nil {
			s.close()
		}
		out.calibrate()
		t0 := time.Now()
		setup := cfg.log.begin(nil, setupSpan, obs.Int("setup", i))
		s = startServer(cfg.log, setup, refs, specs, &out.verdict)
		setup.end()
		out.setups = append(out.setups, measure{t0, time.Now(), seconds(time.Since(t0))})
	}
	defer s.close()

	before, err := s.scrape(nil)
	if err != nil {
		return nil, err
	}
	sched := &schedule{rng: cfg.rng, refs: refs}
	var scripts []*script
	segments := max(2, int(cfg.seconds/calibrateEvery))
	for seg := 0; seg < segments; seg++ {
		out.calibrate()
		// A traced run traces every other segment, so it measures both
		// sides of the tracing overhead.
		var log *spanLog
		if cfg.traced && seg%2 == 1 {
			log = cfg.log
		}
		from := time.Now()
		got := runSegment(s.c, sched, refs, log, cfg.seconds/time.Duration(segments))
		out.addSegment(from, log != nil, got)
		scripts = append(scripts, got...)
	}
	out.calibrate()
	after, err := s.scrape(nil)
	if err != nil {
		return nil, err
	}

	var all []reply
	var sheds, degraded, envelopes int
	for _, sc := range scripts {
		sc.check(&out.verdict, refs)
		all = append(all, sc.replies...)
	}
	for _, r := range all {
		if r.status == http.StatusTooManyRequests {
			sheds++
		}
		if r.env != nil {
			envelopes++
			if r.env.Degraded {
				degraded++
			}
		}
	}
	out.verdict.record(checkDegrades(scripts))
	out.verdict.record(crossCheck(after, s.c.sent.Load(), sheds, degraded))

	if cfg.traced {
		passes := float64(len(all)) / servicePassReqs
		attrs := []obs.Attr{
			obs.Int("shed", sheds),
			obs.F64("degraded_frac", float64(degraded)/float64(max(envelopes, 1))),
		}
		for _, k := range [][2]string{
			{"unique_lookups", "bdd_unique_lookups"}, {"unique_hits", "bdd_unique_hits"},
			{"cache_lookups", "bdd_cache_lookups"}, {"cache_hits", "bdd_cache_hits"},
			{"gc_ns", "bdd_gc_time_ns"}, {"reorder_count", "bdd_reorderings"},
			{"reorder_ns", "bdd_reorder_time_ns"}, {"tasks_stolen", "bdd_tasks_stolen"},
			{"tasks_local", "bdd_tasks_local"}, {"stw_count", "bdd_stw_epochs"},
		} {
			var d float64
			for _, spec := range specs {
				label := fmt.Sprintf("tenant=%q", spec.id)
				d += promValue(after, k[1], label) - promValue(before, k[1], label)
			}
			attrs = append(attrs, obs.F64(k[0], d/passes))
		}
		var peak float64
		for _, spec := range specs {
			peak = max(peak, promValue(after, "bdd_peak_live_nodes", fmt.Sprintf("tenant=%q", spec.id)))
		}
		attrs = append(attrs, obs.F64("peak_live", peak))
		cfg.log.event("serve.tally", attrs...)
	}
	return out, nil
}

// runSegment runs both clients for one segment of the window, recording
// spans in log (nil for an untraced segment), and returns their scripts.
func runSegment(c *httpClient, sched *schedule, refs map[string]*reference, log *spanLog, length time.Duration) []*script {
	var (
		wg      sync.WaitGroup
		scripts [serviceClients][]*script
	)
	deadline := time.Now().Add(length)
	for cl := 0; cl < serviceClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sc := sched.next()
				sc.client = cl
				sc.run(c, log, refs)
				scripts[cl] = append(scripts[cl], sc)
			}
		}(cl)
	}
	wg.Wait()
	return append(scripts[0], scripts[1]...)
}

// addSegment records a segment of the service window, which ran from from
// until now. Its requests' latencies are measured over their own
// intervals; the segment is a window of the throughput, and one pass is
// the time servicePassReqs requests take at the segment's rate.
func (o *outcome) addSegment(from time.Time, traced bool, scripts []*script) {
	to := time.Now()
	n := 0
	for _, sc := range scripts {
		for _, r := range sc.replies {
			n++
			if traced {
				o.tracedReqs = append(o.tracedReqs, r.ms)
			} else {
				o.requests = append(o.requests, measure{r.done.Add(-time.Duration(r.ms * 1e6)), r.done, r.ms})
			}
		}
	}
	if traced || n == 0 {
		return
	}
	length := seconds(to.Sub(from))
	o.windows = append(o.windows, measure{from, to, length})
	o.passes = append(o.passes, measure{from, to, length * servicePassReqs / float64(n)})
}

// checkDegrades requires the starved tenant's and/or operations to
// degrade at least once, and no reply of another tenant to degrade. Without
// it, a quota that stopped being enforced would leave the starved tenant's
// checks comparing exact answers with exact answers, and would read as a
// lower serve.degraded_frac.
func checkDegrades(scripts []*script) error {
	starved, elsewhere := 0, 0
	for _, sc := range scripts {
		for _, r := range sc.replies {
			switch {
			case r.env == nil || !r.env.Degraded:
			case sc.kind == "starved-ops" && r.class == "ops":
				starved++
			default:
				elsewhere++
			}
		}
	}
	if starved == 0 || elsewhere > 0 {
		return fmt.Errorf("%d degraded and/or operations on the starved tenant (want some), %d other degraded replies (want none)", starved, elsewhere)
	}
	return nil
}

// crossCheck compares the server's own tallies with the clients'. The
// requests total includes the final scrape itself, which the server
// counts before it renders the page.
func crossCheck(p *obs.PromScrape, sent int64, sheds, degraded int) error {
	got := [3]float64{
		promValue(p, "serve_requests_total", ""),
		promValue(p, "serve_sheds_total", ""),
		promValue(p, "serve_degrades_total", ""),
	}
	want := [3]float64{float64(sent), float64(sheds), float64(degraded)}
	if got != want {
		return fmt.Errorf("/metrics requests/sheds/degrades %v, clients counted %v", got, want)
	}
	return nil
}

// serviceLayerMetrics fills the serve.* metrics from the request spans and
// the serve.tally event, and the bdd.* metrics from the tally's /metrics
// deltas (the tenants' managers live inside the server). Other workloads
// report the serve.* metrics as 0. bdd.gc_count is not measured here and
// stays 0: a tenant's registry exports its managers' GC time but no GC
// count, and the benchmark cannot reach the managers themselves.
func serviceLayerMetrics(events []obs.Event, m map[string]float64) {
	// Load requests are root spans; set-up requests sit under bench.setup.
	byClass := make(map[string][]float64)
	var server, transport []float64
	var tally *obs.Event
	for i := range events {
		ev := &events[i]
		if ev.Name == "serve.tally" {
			tally = ev
		}
		if !strings.HasPrefix(ev.Name, "serve.") || ev.Kind != "span" || ev.Parent != 0 {
			continue
		}
		byClass[ev.Name] = append(byClass[ev.Name], float64(ev.DurNS)/1e6)
		if ns, ok := ev.Attrs["server_ns"].(float64); ok {
			server = append(server, ns/1e6)
			transport = append(transport, float64(ev.DurNS-int64(ns))/1e6)
		}
	}
	for _, class := range []string{"count", "sample", "approx", "decomp", "ops", "reach", "upload", "snapshot"} {
		m["serve."+class+".p50_ms"] = median(byClass["serve."+class])
	}
	m["serve.server_ms"] = median(server)
	m["serve.transport_ms"] = median(transport)
	m["serve.shed"], m["serve.degraded_frac"] = 0, 0
	if tally == nil {
		return
	}
	m["serve.shed"] = attrNum(tally, "shed")
	m["serve.degraded_frac"] = attrNum(tally, "degraded_frac")
	m["bdd.unique_lookups"] = attrNum(tally, "unique_lookups")
	m["bdd.unique_hit_rate"] = ratio(attrNum(tally, "unique_hits"), attrNum(tally, "unique_lookups"))
	m["bdd.cache_lookups"] = attrNum(tally, "cache_lookups")
	m["bdd.cache_hit_rate"] = ratio(attrNum(tally, "cache_hits"), attrNum(tally, "cache_lookups"))
	m["bdd.gc_s"] = attrNum(tally, "gc_ns") / 1e9
	m["bdd.reorder_count"] = attrNum(tally, "reorder_count")
	m["bdd.reorder_s"] = attrNum(tally, "reorder_ns") / 1e9
	m["bdd.peak_live_nodes"] = attrNum(tally, "peak_live")
	m["bdd.tasks_stolen"] = attrNum(tally, "tasks_stolen")
	m["bdd.tasks_local"] = attrNum(tally, "tasks_local")
	m["bdd.stw_count"] = attrNum(tally, "stw_count")
}
