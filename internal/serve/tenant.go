package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/obs"
)

// Tenant is one isolated session: its own bdd.Manager (so node budgets
// and GC pressure never cross tenants), its own named-function namespace,
// its own metrics registry (merged into /metrics under a tenant label),
// its own telemetry sink (the manager's events and the quality ledger its
// degraded answers file their loss in, on that registry), and its own
// admission state.
type Tenant struct {
	ID string

	adm      *admission
	quota    int           // live-node budget for the manager
	deadline time.Duration // per-operation wall-clock budget
	workers  int
	cacheCfg bdd.Config // the tenant's managers' configuration, observer included

	reg      *obs.Registry
	sink     *obs.Sink
	ops      *obs.Counter // operations completed
	degrades *obs.Counter // budget-degraded answers served
	sheds    *obs.Counter // requests shed by admission control

	// mu serializes manager mutation; admission admits one operation at a
	// time, but teardown and informational reads take the lock too.
	mu     sync.Mutex
	m      *bdd.Manager
	c      *circuit.Compiled // non-nil after a netlist upload
	funcs  map[string]bdd.Ref
	closed bool
}

func newTenant(id string, quota, workers, queueDepth int, cacheBits uint, deadline time.Duration) *Tenant {
	reg := obs.NewRegistry()
	sink := obs.NewSink(reg, nil)
	t := &Tenant{
		ID:       id,
		adm:      newAdmission(queueDepth, deadline),
		quota:    quota,
		deadline: deadline,
		workers:  workers,
		cacheCfg: bdd.Config{Workers: workers, CacheBits: cacheBits, Observer: sink},
		reg:      reg,
		sink:     sink,
		ops:      reg.Counter("serve_tenant_ops_total"),
		degrades: reg.Counter("serve_tenant_degrades_total"),
		sheds:    reg.Counter("serve_tenant_sheds_total"),
		funcs:    make(map[string]bdd.Ref),
	}
	reg.SetHelp("serve_tenant_ops_total", "operations completed for this tenant")
	reg.SetHelp("serve_tenant_degrades_total", "budget-degraded answers served to this tenant")
	reg.SetHelp("serve_tenant_sheds_total", "requests shed by admission control for this tenant")
	return t
}

// manager returns the tenant's manager, creating it on first use. Callers
// hold t.mu.
func (t *Tenant) manager() *bdd.Manager {
	if t.m == nil {
		t.m = bdd.NewWithConfig(0, t.cacheCfg)
		obs.RegisterManagerGauges(t.reg, t.m)
	}
	return t.m
}

// headroom is how many more nodes the tenant may allocate; degraded
// answers are shrunk to fit it (with a small floor so a tenant at its
// quota still gets a usable shape back).
func (t *Tenant) headroom() int {
	h := t.quota - t.manager().NodeCount()
	if h < 8 {
		h = 8
	}
	return h
}

// info snapshots the tenant for listings. Takes the lock; do not call
// with t.mu held.
func (t *Tenant) info() TenantInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := 0
	if t.m != nil {
		live = t.m.NodeCount()
	}
	return TenantInfo{
		ID:         t.ID,
		Quota:      t.quota,
		Workers:    t.workers,
		QueueDepth: int(t.adm.queueDepth),
		DeadlineMS: t.deadline.Milliseconds(),
		LiveNodes:  live,
		Functions:  len(t.funcs),
		Compiled:   t.c != nil,
	}
}

// lookup resolves a named function. Callers hold t.mu.
func (t *Tenant) lookup(name string) (bdd.Ref, error) {
	f, ok := t.funcs[name]
	if !ok {
		return 0, fmt.Errorf("unknown function %q", name)
	}
	return f, nil
}

// bind stores f under name, releasing any previous binding. Takes
// ownership of the reference. Callers hold t.mu.
func (t *Tenant) bind(name string, f bdd.Ref) {
	if old, ok := t.funcs[name]; ok {
		t.m.Deref(old)
	}
	t.funcs[name] = f
}

// funcList returns the sorted function inventory. Callers hold t.mu.
func (t *Tenant) funcList() []FuncInfo {
	out := make([]FuncInfo, 0, len(t.funcs))
	for name, f := range t.funcs {
		out = append(out, FuncInfo{Name: name, Nodes: t.m.DagSize(f)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// compile uploads a netlist into the tenant: the manager is created by
// circuit.Compile (honoring the tenant's worker/cache configuration) and
// every output becomes a named function. A second upload is an error —
// the function namespace and variable order belong to the first circuit.
func (t *Tenant) compile(r io.Reader) ([]FuncInfo, error) {
	nl, err := circuit.Parse(r)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errTenantClosed
	}
	if t.c != nil {
		return nil, errAlreadyCompiled
	}
	if t.m != nil && len(t.funcs) > 0 {
		return nil, fmt.Errorf("tenant already holds restored functions; create a fresh tenant for a netlist")
	}
	cfg := t.cacheCfg
	c, err := circuit.Compile(nl, circuit.CompileOptions{BDDConfig: &cfg})
	if err != nil {
		return nil, err
	}
	// The compiled manager replaces any lazily created empty one.
	t.c = c
	t.m = c.M
	obs.RegisterManagerGauges(t.reg, t.m)
	// Compilation ran unbudgeted (the circuit is the tenant's working set);
	// enforce the quota from here on via RunLimited in run().
	for i, name := range nl.OutName {
		t.bind(name, t.m.Ref(c.Outputs[i]))
	}
	return t.funcList(), nil
}

// restore loads a snapshot (fuzz-hardened Save/Load format) into the
// tenant's manager, binding every root by name.
func (t *Tenant) restore(r io.Reader) ([]FuncInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errTenantClosed
	}
	m := t.manager()
	var roots map[string]bdd.Ref
	err := m.RunLimited(t.opDeadline(), t.quota, func() error {
		var lerr error
		roots, lerr = m.Load(r)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	for name, f := range roots {
		t.bind(name, f)
	}
	return t.funcList(), nil
}

// snapshot writes the tenant's whole function namespace in Save format.
func (t *Tenant) snapshot(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errTenantClosed
	}
	if len(t.funcs) == 0 {
		return fmt.Errorf("tenant holds no functions")
	}
	names := make([]string, 0, len(t.funcs))
	for name := range t.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	roots := make([]bdd.Ref, len(names))
	for i, name := range names {
		roots[i] = t.funcs[name]
	}
	return t.m.Save(w, names, roots)
}

// liveNodes reports the manager's current live-node count for envelopes.
func (t *Tenant) liveNodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		return 0
	}
	return t.m.NodeCount()
}

// opDeadline converts the per-op duration budget into a wall-clock
// deadline for RunLimited.
func (t *Tenant) opDeadline() time.Time {
	if t.deadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(t.deadline)
}

// close tears the tenant down: all function references dropped, the
// compiled circuit released. The manager itself is garbage once nothing
// points at it.
func (t *Tenant) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for name, f := range t.funcs {
		t.m.Deref(f)
		delete(t.funcs, name)
	}
	if t.c != nil {
		t.c.Release()
		t.c = nil
	}
	t.m = nil
}

// opOutcome is what run's callback reports besides an error: whether the
// operation degraded and why.
type opOutcome struct {
	degraded bool
	reason   string
}

// run admits one operation, serializes it against the tenant's manager,
// and executes fn under the tenant's node quota and wall-clock deadline.
// fn runs with t.mu held and must not retain the lock past its return.
//
// When fn trips the budget (bdd.OpAborted) and onAbort is non-nil, run
// invokes onAbort with the limits disarmed (RunLimited restored them on
// the way out) so it can compute a degraded-but-sound answer via the
// under-approximation path; onAbort should fill out.degraded/reason.
// With a nil onAbort the abort surfaces as the returned error.
func (t *Tenant) run(
	fn func(m *bdd.Manager, out *opOutcome) error,
	onAbort func(m *bdd.Manager, out *opOutcome, reason string) error,
) (opOutcome, error) {
	release, shed := t.adm.acquire()
	if shed != nil {
		t.sheds.Inc()
		return opOutcome{}, shed
	}
	defer release()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return opOutcome{}, errTenantClosed
	}
	m := t.manager()
	var out opOutcome
	err := m.RunLimited(t.opDeadline(), t.quota, func() error {
		return fn(m, &out)
	})
	if ab, ok := err.(bdd.OpAborted); ok && onAbort != nil {
		err = onAbort(m, &out, ab.Reason)
	}
	if err == nil {
		t.ops.Inc()
		if out.degraded {
			t.degrades.Inc()
		}
	}
	return out, err
}

// degradeToQuota shrinks f to the tenant's remaining headroom with the
// node limit disarmed (the under-approximation operators need working
// space), filing the loss in the quality ledger under op "degrade". The
// result is containment-sound: it implies f. Callers hold t.mu and run
// OUTSIDE RunLimited (its restore-on-exit would re-arm the tripped limit
// around the degrade work).
func (t *Tenant) degradeToQuota(m *bdd.Manager, f bdd.Ref) bdd.Ref {
	return approx.ToBudget(m, f, t.headroom())
}

var (
	errAlreadyCompiled = fmt.Errorf("tenant already compiled a netlist")
	errTenantClosed    = fmt.Errorf("tenant is closed")
)
