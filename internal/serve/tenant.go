package serve

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
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

	// gauges is what the manager gauges on reg serve: a snapshot of the
	// manager taken under mu, at the end of each operation and by each
	// /metrics scrape that finds mu free (refreshGauges). A scrape never
	// reads the manager itself, which an operation may be mutating.
	gauges atomic.Pointer[obs.ManagerSnapshot]
}

func newTenant(id string, quota, queueDepth int, deadline time.Duration) *Tenant {
	reg := obs.NewRegistry()
	sink := obs.NewSink(reg, nil)
	t := &Tenant{
		ID:       id,
		adm:      newAdmission(queueDepth, deadline),
		quota:    quota,
		deadline: deadline,
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
		t.m = bdd.NewWithConfig(0, bdd.Config{Observer: t.sink})
		t.registerGauges()
	}
	return t.m
}

// registerGauges installs the manager gauges on the tenant's registry,
// served from the tenant's snapshot, and takes the first snapshot. Callers
// hold t.mu.
func (t *Tenant) registerGauges() {
	t.snapGauges()
	obs.RegisterManagerGauges(t.reg, func() obs.ManagerSnapshot { return *t.gauges.Load() })
}

// snapGauges snapshots the manager for the gauges. Callers hold t.mu.
func (t *Tenant) snapGauges() {
	if t.m != nil {
		snap := obs.SnapshotManager(t.m)
		t.gauges.Store(&snap)
	}
}

// refreshGauges re-snapshots the manager for a /metrics scrape if no
// operation holds the tenant, so an idle tenant serves its current
// values; a busy one serves what its last operation left.
func (t *Tenant) refreshGauges() {
	if t.mu.TryLock() {
		t.snapGauges()
		t.mu.Unlock()
	}
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
// circuit.Compile (reporting to the tenant's sink) and every output
// becomes a named function. A second upload is an error —
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
	c, err := circuit.Compile(nl, circuit.CompileOptions{BDDConfig: &bdd.Config{Observer: t.sink}})
	if err != nil {
		return nil, err
	}
	// The compiled manager replaces any lazily created empty one.
	t.c = c
	t.m = c.M
	t.registerGauges()
	// Compilation ran unbudgeted (the circuit is the tenant's working set);
	// every operation from here on runs under the quota (see run).
	for i, name := range nl.OutName {
		t.bind(name, t.m.Ref(c.Outputs[i]))
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
// operation degraded and why, and the functions it binds. A callback that
// sets listFuncs gets the tenant's function inventory in funcs, listed
// under the same lock that applied the binds.
type opOutcome struct {
	degraded  bool
	reason    string
	binds     []binding
	listFuncs bool
	funcs     []FuncInfo
}

// binding is one function an operation binds by name once it succeeds.
type binding struct {
	name string
	f    bdd.Ref
}

// bind queues f to be bound under name when the operation succeeds; it
// takes ownership of the reference.
func (o *opOutcome) bind(name string, f bdd.Ref) {
	o.binds = append(o.binds, binding{name, f})
}

// admit claims the tenant's operation slot for a request whose context
// is ctx, counting sheds.
func (t *Tenant) admit(ctx context.Context) (release func(), err error) {
	release, err = t.adm.acquire(ctx)
	if _, shed := err.(*ShedError); shed {
		t.sheds.Inc()
	}
	return release, err
}

// run admits one operation, serializes it against the tenant's manager,
// and executes fn inside one bdd.Manager.Run under the tenant's node quota
// and ctx, the request's context bounded by the tenant's deadline. fn
// runs with t.mu held and must not retain the lock past its return.
//
// When fn trips the quota or the deadline (bdd.OpAborted) and onAbort is
// non-nil, run invokes onAbort after the Run, with the limits disarmed,
// so it can compute a degraded-but-sound answer via the
// under-approximation path; onAbort should fill out.degraded/reason.
// With a nil onAbort the abort surfaces as the returned error.
//
// When ctx ends before run does (the client went away), the operation is
// cancelled: run returns an error, onAbort does not run, nothing is bound
// and nothing is counted. The client that would see a degraded marker is
// gone, and a partial function bound under the requested name would be a
// wrong answer to the next reader.
func (t *Tenant) run(
	ctx context.Context,
	fn func(m *bdd.Manager, out *opOutcome) error,
	onAbort func(m *bdd.Manager, out *opOutcome, reason string) error,
) (opOutcome, error) {
	release, err := t.admit(ctx)
	if err != nil {
		return opOutcome{}, err
	}
	defer release()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return opOutcome{}, errTenantClosed
	}
	m := t.manager()
	defer t.snapGauges()
	var out opOutcome
	opCtx, cancel := context.WithTimeout(ctx, t.deadline)
	defer cancel()
	err = m.Run(opCtx, t.quota, func() error {
		return fn(m, &out)
	})
	if ctx.Err() != nil {
		err = fmt.Errorf("request cancelled: %w", ctx.Err())
	} else if ab, ok := err.(bdd.OpAborted); ok && onAbort != nil {
		err = onAbort(m, &out, ab.Reason)
	}
	if err != nil {
		for _, b := range out.binds {
			m.Deref(b.f)
		}
		return opOutcome{}, err
	}
	for _, b := range out.binds {
		t.bind(b.name, b.f)
	}
	if out.listFuncs {
		out.funcs = t.funcList()
	}
	t.ops.Inc()
	if out.degraded {
		t.degrades.Inc()
	}
	return out, nil
}

// degradeToQuota shrinks f to the tenant's remaining headroom with the
// node limit disarmed (the under-approximation operators need working
// space), filing the loss in the quality ledger under op "degrade". The
// result is containment-sound: it implies f. Callers hold t.mu and run
// outside the operation's bdd.Manager.Run (inside it the tripped quota
// would still be in force around the degrade work).
func (t *Tenant) degradeToQuota(m *bdd.Manager, f bdd.Ref) bdd.Ref {
	return approx.ToBudget(m, f, t.headroom())
}

var (
	errAlreadyCompiled = fmt.Errorf("tenant already compiled a netlist")
	errTenantClosed    = fmt.Errorf("tenant is closed")
)
