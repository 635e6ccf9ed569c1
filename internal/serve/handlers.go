package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/decomp"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

// maxSamplesPerRequest bounds one sample query (the sampler is cheap but
// the response body is not).
const maxSamplesPerRequest = 4096

// Handler builds the v1 API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WritePrometheusMulti(w, s.labeledRegistries())
	})
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("PUT /v1/tenants/{id}", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants/{id}", s.handleTenantInfo)
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDropTenant)
	mux.HandleFunc("POST /v1/tenants/{id}/netlist", s.handleNetlist)
	mux.HandleFunc("POST /v1/tenants/{id}/restore", s.handleRestore)
	mux.HandleFunc("GET /v1/tenants/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/tenants/{id}/funcs", s.handleFuncs)
	mux.HandleFunc("GET /v1/tenants/{id}/quality", s.handleQuality)
	mux.HandleFunc("POST /v1/tenants/{id}/ops", s.handleOps)
	mux.HandleFunc("POST /v1/tenants/{id}/approx", s.handleApprox)
	mux.HandleFunc("POST /v1/tenants/{id}/decomp", s.handleDecomp)
	mux.HandleFunc("POST /v1/tenants/{id}/reach", s.handleReach)
	mux.HandleFunc("POST /v1/tenants/{id}/count", s.handleCount)
	mux.HandleFunc("POST /v1/tenants/{id}/sample", s.handleSample)
	return s.countRequests(mux)
}

func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// writeError maps service errors onto HTTP statuses; shed requests carry
// Retry-After so well-behaved clients back off.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		s.sheds.Inc()
		w.Header().Set("Retry-After",
			strconv.Itoa(int((shed.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: shed.Error()})
		return
	}
	status := http.StatusBadRequest
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unknown tenant"),
		strings.Contains(msg, "unknown function"):
		status = http.StatusNotFound
	case errors.Is(err, errAlreadyCompiled), strings.Contains(msg, "already exists"),
		strings.Contains(msg, "already holds restored functions"):
		status = http.StatusConflict
	case errors.Is(err, errTenantClosed):
		status = http.StatusGone
	case errors.As(err, new(bdd.OpAborted)):
		// An abort the handler could not degrade soundly.
		status = http.StatusUnprocessableEntity
	case strings.Contains(msg, "pool full"):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ErrorBody{Error: msg})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// envelope assembles the standard success wrapper.
func (s *Server) envelope(t *Tenant, op string, out opOutcome, result any, start time.Time) Envelope {
	if out.degraded {
		s.degrades.Inc()
	}
	return Envelope{
		Tenant:        t.ID,
		Op:            op,
		Degraded:      out.degraded,
		DegradeReason: out.reason,
		Result:        result,
		LiveNodes:     t.liveNodes(),
		Quota:         t.quota,
		ElapsedNS:     time.Since(start).Nanoseconds(),
	}
}

// --- tenant lifecycle ---

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	infos := make([]TenantInfo, 0, len(tenants))
	for _, t := range tenants {
		infos = append(infos, t.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
	}
	t, err := s.createTenant(r.PathValue("id"), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (s *Server) handleTenantInfo(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

func (s *Server) handleDropTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.dropTenant(r.PathValue("id")); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- function building ---

func (s *Server) handleNetlist(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Compilation is admitted like any other operation (it monopolizes the
	// tenant) but runs unbudgeted: the circuit is the tenant's working set.
	release, shed := t.adm.acquire()
	if shed != nil {
		t.sheds.Inc()
		s.writeError(w, shed)
		return
	}
	defer release()
	funcs, err := t.compile(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	t.ops.Inc()
	writeJSON(w, http.StatusOK, s.envelope(t, "netlist", opOutcome{}, funcs, start))
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	release, shed := t.adm.acquire()
	if shed != nil {
		t.sheds.Inc()
		s.writeError(w, shed)
		return
	}
	defer release()
	funcs, err := t.restore(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	t.ops.Inc()
	writeJSON(w, http.StatusOK,
		s.envelope(t, "restore", opOutcome{}, RestoreResult{Functions: funcs}, start))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := t.snapshot(w); err != nil {
		// Headers may already be out; best effort.
		s.writeError(w, err)
	}
}

func (s *Server) handleFuncs(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	t.mu.Lock()
	funcs := t.funcList()
	t.mu.Unlock()
	writeJSON(w, http.StatusOK, funcs)
}

// handleQuality serves the tenant's quality-ledger snapshot: the loss its
// approximations and budget-degraded answers filed, per operator.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.sink.Ledger().Snapshot())
}

// handleOps applies a boolean combinator. AND and OR are monotone, so on
// a budget abort the operands are individually under-approximated to the
// tenant's headroom and the combinator re-run over the shrunken inputs —
// still an under-approximation of the exact result. XOR and NOT are not
// monotone; their aborts surface as errors.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req OpRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Result == "" {
		s.writeError(w, fmt.Errorf("ops: result name required"))
		return
	}
	switch req.Op {
	case "not":
		if len(req.Args) != 1 {
			s.writeError(w, fmt.Errorf("ops: not takes exactly 1 arg"))
			return
		}
	case "and", "or", "xor":
		if len(req.Args) < 2 {
			s.writeError(w, fmt.Errorf("ops: %s takes at least 2 args", req.Op))
			return
		}
	default:
		s.writeError(w, fmt.Errorf("ops: unknown op %q (want and|or|xor|not)", req.Op))
		return
	}

	combine := func(m *bdd.Manager, acc, g bdd.Ref) bdd.Ref {
		switch req.Op {
		case "and":
			return m.And(acc, g)
		case "or":
			return m.Or(acc, g)
		default:
			return m.Xor(acc, g)
		}
	}
	fold := func(m *bdd.Manager, args []bdd.Ref) bdd.Ref {
		if req.Op == "not" {
			return m.Not(args[0])
		}
		acc := m.Ref(args[0])
		for _, g := range args[1:] {
			nxt := combine(m, acc, g)
			m.Deref(acc)
			acc = nxt
		}
		return acc
	}
	resolve := func() ([]bdd.Ref, error) {
		args := make([]bdd.Ref, len(req.Args))
		for i, name := range req.Args {
			f, err := t.lookup(name)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
		return args, nil
	}

	var info FuncInfo
	out, err := t.run(
		func(m *bdd.Manager, out *opOutcome) error {
			args, err := resolve()
			if err != nil {
				return err
			}
			res := fold(m, args)
			t.bind(req.Result, res)
			info = FuncInfo{Name: req.Result, Nodes: m.DagSize(res)}
			return nil
		},
		func(m *bdd.Manager, out *opOutcome, reason string) error {
			if req.Op == "xor" || req.Op == "not" {
				return bdd.OpAborted{Reason: reason}
			}
			args, err := resolve()
			if err != nil {
				return err
			}
			// Shrink each operand to the remaining headroom, recombine,
			// then squeeze the result under the quota.
			small := make([]bdd.Ref, len(args))
			for i, f := range args {
				small[i] = t.degradeToQuota(m, f)
			}
			res := fold(m, small)
			for _, f := range small {
				m.Deref(f)
			}
			final := t.degradeToQuota(m, res)
			m.Deref(res)
			t.bind(req.Result, final)
			info = FuncInfo{Name: req.Result, Nodes: m.DagSize(final)}
			out.degraded = true
			out.reason = fmt.Sprintf("%s; operands under-approximated and result squeezed to quota", reason)
			return nil
		})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.envelope(t, "ops/"+req.Op, out, info, start))
}

// handleApprox runs one of the paper's approximation operators. On a
// budget abort the target itself is degraded to the tenant's headroom —
// the caller asked for an under-approximation and gets one, just chosen
// by budget instead of threshold.
func (s *Server) handleApprox(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req ApproxRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	quality := req.Quality
	if quality <= 0 {
		quality = 1.0
	}
	alpha := req.Alpha
	if alpha <= 0 {
		alpha = 0.5
	}
	apply := func(m *bdd.Manager, f bdd.Ref) (bdd.Ref, error) {
		switch req.Op {
		case "rua":
			return approx.RemapUnderApprox(m, f, req.Threshold, quality), nil
		case "sp":
			return approx.ShortPaths(m, f, req.Threshold), nil
		case "hb":
			return approx.HeavyBranch(m, f, req.Threshold), nil
		case "ua":
			return approx.UnderApprox(m, f, req.Threshold, alpha), nil
		case "c1":
			return approx.Compound1(m, f, req.Threshold, quality), nil
		case "c2":
			return approx.Compound2(m, f, req.Threshold, quality), nil
		default:
			return 0, fmt.Errorf("approx: unknown op %q (want rua|sp|hb|ua|c1|c2)", req.Op)
		}
	}

	var res ApproxResult
	finish := func(m *bdd.Manager, f, r bdd.Ref) {
		massIn := count.Fraction(m, f)
		massOut := count.Fraction(m, r)
		retained := 0.0
		if massIn > 0 {
			retained = massOut / massIn
		}
		res = ApproxResult{
			Name:         req.Result,
			NodesIn:      m.DagSize(f),
			NodesOut:     m.DagSize(r),
			MassIn:       massIn,
			MassOut:      massOut,
			MassRetained: retained,
		}
		if req.Result != "" {
			t.bind(req.Result, r)
		} else {
			m.Deref(r)
		}
	}

	out, err := t.run(
		func(m *bdd.Manager, out *opOutcome) error {
			f, err := t.lookup(req.Target)
			if err != nil {
				return err
			}
			r, err := apply(m, f)
			if err != nil {
				return err
			}
			finish(m, f, r)
			return nil
		},
		func(m *bdd.Manager, out *opOutcome, reason string) error {
			f, err := t.lookup(req.Target)
			if err != nil {
				return err
			}
			r := t.degradeToQuota(m, f)
			finish(m, f, r)
			out.degraded = true
			out.reason = fmt.Sprintf("%s; served budget-driven under-approximation instead of %s", reason, req.Op)
			return nil
		})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.envelope(t, "approx/"+req.Op, out, res, start))
}

// handleDecomp factors a named function. Decomposition has no sound
// degraded form (the factors must reconstruct f exactly), so budget
// aborts surface as errors.
func (s *Server) handleDecomp(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req DecompRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	var res DecompResult
	out, err := t.run(func(m *bdd.Manager, out *opOutcome) error {
		f, err := t.lookup(req.Target)
		if err != nil {
			return err
		}
		res = DecompResult{Selector: req.Selector, NodesIn: m.DagSize(f)}
		switch req.Selector {
		case "cofactor":
			p := decomp.Cofactor(m, f)
			res.FactorNodes = []int{m.DagSize(p.G), m.DagSize(p.H)}
			res.SharedNodes = p.SharedSize(m)
			p.Deref(m)
		case "band":
			p := decomp.Decompose(m, f, decomp.BandPoints(m, f, decomp.DefaultBandConfig()))
			res.FactorNodes = []int{m.DagSize(p.G), m.DagSize(p.H)}
			res.SharedNodes = p.SharedSize(m)
			p.Deref(m)
		case "disjoint":
			p := decomp.Decompose(m, f, decomp.DisjointPoints(m, f, decomp.DefaultDisjointConfig()))
			res.FactorNodes = []int{m.DagSize(p.G), m.DagSize(p.H)}
			res.SharedNodes = p.SharedSize(m)
			p.Deref(m)
		case "mcmillan":
			fs := decomp.McMillan(m, f)
			res.FactorNodes = make([]int, len(fs))
			for i, g := range fs {
				res.FactorNodes[i] = m.DagSize(g)
			}
			res.SharedNodes = m.SharingSize(fs)
			for _, g := range fs {
				m.Deref(g)
			}
		default:
			return fmt.Errorf("decomp: unknown selector %q (want cofactor|band|disjoint|mcmillan)", req.Selector)
		}
		return nil
	}, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.envelope(t, "decomp/"+req.Selector, out, res, start))
}

// handleReach traverses the uploaded netlist's state space. The engine
// absorbs budget aborts internally: a tripped node quota ends the
// traversal with the states found so far — a sound under-approximation of
// the reachable set — and the response is marked degraded.
func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req ReachRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "bfs"
	}
	if mode != "bfs" && mode != "hd" {
		s.writeError(w, fmt.Errorf("reach: unknown mode %q (want bfs|hd)", mode))
		return
	}
	var res ReachResult
	out, err := t.run(func(m *bdd.Manager, out *opOutcome) error {
		if t.c == nil {
			return fmt.Errorf("reach: tenant has no compiled netlist")
		}
		tr, err := reach.NewTR(t.c, reach.DefaultTROptions())
		if err != nil {
			return err
		}
		defer tr.Release()
		opts := reach.Options{
			Threshold:     req.Threshold,
			MaxIterations: req.MaxIterations,
		}
		var tres reach.Result
		if mode == "hd" {
			opts.Subset = reach.RUASubsetter(1.0)
			tres = tr.HighDensity(t.c.Init, opts)
		} else {
			tres = tr.BFS(t.c.Init, opts)
		}
		res = ReachResult{
			Name:       req.Result,
			States:     tres.States,
			Nodes:      tres.Nodes,
			Iterations: tres.Iterations,
			Completed:  tres.Completed,
		}
		if req.Result != "" {
			t.bind(req.Result, tres.Reached)
		} else {
			m.Deref(tres.Reached)
		}
		if tres.Abort != "" {
			out.degraded = true
			out.reason = fmt.Sprintf("%s; reached set is a partial (sound) under-approximation", tres.Abort)
		}
		return nil
	}, func(m *bdd.Manager, out *opOutcome, reason string) error {
		// The quota tripped before the traversal engine could absorb it
		// (building the clustered transition relation already exceeds the
		// budget). The soundest under-approximation still available is the
		// initial state set itself.
		if t.c == nil {
			return fmt.Errorf("reach: tenant has no compiled netlist")
		}
		states := 0.0
		if n, err := count.MintermsOver(m, t.c.Init, t.c.StateVars); err == nil {
			f, _ := new(big.Float).SetInt(n).Float64()
			states = f
		}
		res = ReachResult{
			Name:   req.Result,
			States: states,
			Nodes:  m.DagSize(t.c.Init),
		}
		if req.Result != "" {
			t.bind(req.Result, m.Ref(t.c.Init))
		}
		out.degraded = true
		out.reason = reason + "; served initial states only (sound floor)"
		return nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.envelope(t, "reach/"+mode, out, res, start))
}

// handleCount answers model-count queries (no node allocation, so no
// degradation path).
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req CountRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "exact"
	}
	bias := req.Bias
	if bias <= 0 {
		bias = 0.5
	}
	var res CountResult
	out, err := t.run(func(m *bdd.Manager, out *opOutcome) error {
		f, err := t.lookup(req.Target)
		if err != nil {
			return err
		}
		res = CountResult{Mode: mode}
		switch mode {
		case "exact":
			n, err := count.Minterms(m, f, m.NumVars())
			if err != nil {
				return err
			}
			res.Exact = n.String()
		case "fraction":
			res.Fraction = count.Fraction(m, f)
		case "weighted":
			res.Weighted = count.Weighted(m, f, func(v int) float64 { return bias })
		default:
			return fmt.Errorf("count: unknown mode %q (want exact|fraction|weighted)", mode)
		}
		return nil
	}, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.envelope(t, "count/"+mode, out, res, start))
}

// handleSample draws uniform satisfying assignments.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t, err := s.tenant(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req SampleRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	n := req.N
	if n <= 0 {
		n = 1
	}
	if n > maxSamplesPerRequest {
		s.writeError(w, fmt.Errorf("sample: n %d exceeds %d", n, maxSamplesPerRequest))
		return
	}
	var res SampleResult
	out, err := t.run(func(m *bdd.Manager, out *opOutcome) error {
		f, err := t.lookup(req.Target)
		if err != nil {
			return err
		}
		sampler, err := count.NewSampler(m, f, m.NumVars(), req.Seed)
		if err != nil {
			return err
		}
		res = SampleResult{Count: sampler.Count().String(), Samples: make([]string, n)}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.Reset()
			for _, bit := range sampler.Sample() {
				if bit {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			res.Samples[i] = sb.String()
		}
		return nil
	}, nil)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.envelope(t, "sample", out, res, start))
}
