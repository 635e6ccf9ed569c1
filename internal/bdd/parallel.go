package bdd

// Parallel engine: lock-striped shared tables plus a work-stealing fork/join
// layer, gated by Config.Workers. The kernel recursions (ite.go, quant.go)
// are written once over a worker context; this file holds what a non-nil
// worker brings to them. With Workers <= 1 every operation runs with a nil
// worker: plain reference counts, the unstriped cache, no checkpoint and no
// fork. With Workers > 1 the manager becomes safe for concurrent public
// operations and splits large recursions across cores.
//
// Concurrency architecture (see DESIGN.md "Parallel engine" for the long
// form):
//
//   - opLease (RWMutex): every public operation holds the read side for its
//     whole duration. Reordering, Save/Load, DebugCheck, and the other
//     serial-only algorithms take the write side, so they observe a fully
//     quiescent manager and run the kernels with a nil worker.
//   - memBarrier: a cooperative stop-the-world latch *within* operations.
//     Garbage collection, arena growth, and computed-cache resizing need
//     every in-flight recursion parked at a safe point (not finished, just
//     parked); workers poll one atomic flag at recursion entries and yield.
//   - Unique table: one mutex per level (the subtable is already per-level,
//     so striping falls out of the existing layout). makeNode probes and
//     inserts under the level lock only; allocation is lock-free against it.
//   - Computed cache: one mutex per group of sets (cacheStripes stripes).
//     Hit-rate-driven resizing remains a stop-the-world epoch event.
//   - Allocation: free slots are carved into per-worker chunks, either off
//     the global free list (freeMu) or from the arena's virgin-slot cursor
//     (atomic CAS on nodesUsed). The arena is cursor-based — len == cap at
//     all times — so a slice header never changes outside a stop-the-world.
//   - Reference counts: atomic CAS. A node whose count drops to zero in
//     parallel mode keeps the references it holds on its children (deferred
//     death); the pending-death set is reconciled to the serial invariant
//     ("dead nodes hold no references") at the start of every GC, when the
//     world is stopped anyway. Resurrection is then a bare 0->1 CAS.
//   - Work stealing: recursions fork one cofactor subproblem per level into
//     a per-worker deque while above a depth cutoff; idle thief goroutines
//     (spawned on demand, exiting when idle) and joiners waiting on a stolen
//     task steal from the front (oldest = largest). The shared computed
//     cache doubles as the duplicate-work suppressor: two workers racing to
//     the same subproblem meet in the cache, so at most one recomputes.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultWorkers is the package-wide default for Config.Workers == 0,
// settable by command-line wiring (cmd binaries expose -workers). The
// initial value 1 keeps every manager serial unless explicitly configured.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(1) }

// SetDefaultWorkers sets the worker count used by managers created with
// Config.Workers == 0 (including every bdd.New call). n <= 0 selects
// runtime.GOMAXPROCS(0). It only affects managers created afterwards.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers returns the current package-wide default worker count.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// Workers returns the manager's configured worker count (1 = serial).
func (m *Manager) Workers() int {
	if m.par == nil {
		return 1
	}
	return m.par.workers
}

const (
	// cacheStripes is the number of computed-cache locks; sets map to
	// stripes by low bits, so the mapping survives resizes.
	cacheStripes = 256
	// allocChunk is how many free slots a worker carves off the shared
	// allocator at a time.
	allocChunk = 64
	// parForkDepth is the task-granularity cutoff: recursions fork
	// subproblems into the deque only above this depth from the operation
	// root, bounding tasks per operation to roughly 2^parForkDepth while
	// keeping the forked subproblems large.
	parForkDepth = 8
	// thiefIdleTimeout is how long a thief goroutine waits for work before
	// exiting (thieves are respawned on demand, so an idle manager holds no
	// goroutines).
	thiefIdleTimeout = 2 * time.Millisecond
)

// Task lifecycle states.
const (
	taskQueued int32 = iota
	taskClaimed
	taskDone
)

// Task kinds (which kernel recursion a stolen task runs).
const (
	taskAnd uint8 = iota
	taskXor
	taskIte
	taskExists
	taskAndExists
)

// padMutex keeps striped locks on separate cache lines.
type padMutex struct {
	sync.Mutex
	_ [56]byte
}

// opCtx is the per-operation context shared by the operation's forked tasks.
type opCtx struct {
	outstanding atomic.Int64 // forked tasks not yet done
	// reason is the first abort reason, nil until an OpAborted unwinds
	// part of the operation.
	reason atomic.Pointer[string]
}

// abort records reason as the operation's abort cause and reports whether
// this call was the first: several workers can trip a limit in the same
// operation, and only the first one may report it.
func (c *opCtx) abort(reason string) bool { return c.reason.CompareAndSwap(nil, &reason) }

// aborted reports whether part of the operation has unwound.
func (c *opCtx) aborted() bool { return c.reason.Load() != nil }

// parTask is one forked subproblem. The result carries one reference owned
// by whoever joins the task.
type parTask struct {
	ctx     *opCtx
	kind    uint8
	aborted bool
	depth   int32
	f, g, h Ref
	res     Ref
	state   atomic.Int32
	// forkAt is set only on sampled forks (before the push, so the deque
	// mutex orders it before any claim); a thief that claims the task
	// derives its steal latency from it.
	forkAt time.Time
}

// taskDeque is a mutex-protected spawn registry: owners push forked tasks at
// the back; thieves claim from the front (oldest first, which is the largest
// granularity). Claiming is a CAS on the task state, so an owner can also
// claim its own task directly at the join point without touching the deque.
type taskDeque struct {
	mu    sync.Mutex
	tasks []*parTask
}

// push appends t and returns the resulting depth (for sampled deque-depth
// telemetry).
func (d *taskDeque) push(t *parTask) int {
	d.mu.Lock()
	// Compact claimed/done entries opportunistically so the slice does not
	// grow without bound across operations.
	if len(d.tasks) >= 16 {
		live := d.tasks[:0]
		for _, q := range d.tasks {
			if q.state.Load() == taskQueued {
				live = append(live, q)
			}
		}
		d.tasks = live
	}
	d.tasks = append(d.tasks, t)
	n := len(d.tasks)
	d.mu.Unlock()
	return n
}

// steal claims the oldest queued task, preferring tasks of ctx when ctx is
// non-nil (used by the abort drain); with ctx == nil any task qualifies.
func (d *taskDeque) steal(ctx *opCtx) *parTask {
	d.mu.Lock()
	for i := 0; i < len(d.tasks); i++ {
		t := d.tasks[i]
		if t.state.Load() != taskQueued {
			continue
		}
		if ctx != nil && t.ctx != ctx {
			continue
		}
		if t.state.CompareAndSwap(taskQueued, taskClaimed) {
			d.tasks = append(d.tasks[:i], d.tasks[i+1:]...)
			d.mu.Unlock()
			return t
		}
	}
	d.mu.Unlock()
	return nil
}

// parWorker is the per-goroutine execution context: a private allocation
// chunk, a task deque, and local statistics merged into the manager under
// statsMu at operation exit.
type parWorker struct {
	m         *Manager
	e         *parEngine
	ctx       *opCtx // context of the operation currently executing
	deque     taskDeque
	chunk     []int32 // private free arena slots
	stats     Stats   // local deltas, flushed at endOp
	allocTick int

	telem workerTelem // sampled telemetry; goroutine-local writes

	// Watchdog attribution: the operation (or stolen task) currently in
	// flight on this worker, readable without locks.
	opStart atomic.Int64 // unix nanos; 0 = idle
	opCode  atomic.Int32
}

// yield parks the worker at a safe point while a stop-the-world is pending.
// Callers must hold the memory lease and no engine locks, and must hold no
// pointers into the node arena across the call (the arena may be swapped).
// The re-entry wait is the time this worker spends parked for the
// stop-the-world, so it is attributed to leaseWait when telemetry is armed.
func (w *parWorker) yield() {
	w.e.mem.exit()
	if telemetryArmed() {
		t0 := time.Now()
		w.e.mem.enter()
		w.telem.leaseWait.observe(time.Since(t0).Nanoseconds())
		return
	}
	w.e.mem.enter()
}

// checkpoint is the safe-point poll placed at recursion entries: one atomic
// load in the common case, nothing for a nil (serial) worker.
func (w *parWorker) checkpoint() {
	if w != nil && w.e.mem.stwFlag.Load() {
		w.yield()
	}
}

// memBarrier implements the cooperative stop-the-world latch. Lease holders
// (enter/exit) are operations in flight; a stop-the-world request parks new
// entries, waits for the active count to drain to zero (in-flight holders
// reach yield points and exit/re-enter), runs its critical function, and
// releases everyone.
type memBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	active  int
	stw     int
	stwFlag atomic.Bool // fast-path mirror of stw > 0
}

func (b *memBarrier) init() { b.cond = sync.NewCond(&b.mu) }

func (b *memBarrier) enter() {
	b.mu.Lock()
	for b.stw > 0 {
		b.cond.Wait()
	}
	b.active++
	b.mu.Unlock()
}

func (b *memBarrier) exit() {
	b.mu.Lock()
	b.active--
	if b.active == 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// stopTheWorld runs fn with every lease holder parked. haveLease tells
// whether the caller itself holds the lease (it is released around fn and
// reacquired after). fn runs under b.mu, so concurrent stop-the-world
// requests serialize; fn must not acquire the lease itself.
func (b *memBarrier) stopTheWorld(haveLease bool, fn func()) {
	b.mu.Lock()
	b.stw++
	b.stwFlag.Store(true)
	if haveLease {
		b.active--
		if b.active == 0 {
			b.cond.Broadcast()
		}
	}
	for b.active > 0 {
		b.cond.Wait()
	}
	fn()
	b.stw--
	if b.stw == 0 {
		b.stwFlag.Store(false)
		b.cond.Broadcast()
	}
	if haveLease {
		for b.stw > 0 {
			b.cond.Wait()
		}
		b.active++
	}
	b.mu.Unlock()
}

// parEngine holds all concurrency state of a parallel manager.
type parEngine struct {
	workers int

	opLease sync.RWMutex
	mem     memBarrier

	tableMu []padMutex // one per level, index = level
	cacheMu []padMutex // cacheStripes stripes over cache sets

	freeMu sync.Mutex // global free list + virgin-cursor refills

	deadMu      sync.Mutex
	deadPending map[int32]struct{} // indices whose count hit zero in parallel

	// Counter mirrors: during parallel phases m.liveCount / m.deadCount are
	// frozen at base and all movement accumulates in the atomic deltas;
	// stop-the-world and exclusive sections fold the deltas back into the
	// plain fields (syncEnter) and re-publish them (syncExit).
	liveBase  atomic.Int64
	deadBase  atomic.Int64
	liveDelta atomic.Int64
	deadDelta atomic.Int64
	peakLive  atomic.Int64

	// Atomic mirrors of reordering tunables, readable before the lease is
	// taken (the serial fields are only touched under the write lease).
	autoReorderA      atomic.Bool
	reorderThresholdA atomic.Int64

	cacheTick atomic.Uint32 // shared age clock for striped cache updates

	statsMu sync.Mutex // guards m.stats merges against Stats() snapshots

	// Counters with no worker context (public Ref/Deref, CacheLookup from
	// client algorithms), merged at Stats() time.
	resurrected      atomic.Int64
	extraCacheLooks  atomic.Int64
	extraCacheHits   atomic.Int64
	extraCacheIns    atomic.Int64
	extraCacheEvicts atomic.Int64
	tasksLocal       atomic.Int64
	tasksStolen      atomic.Int64

	poolMu  sync.Mutex
	idle    []*parWorker
	all     atomic.Value // []*parWorker snapshot for steal scans
	thieves atomic.Int32 // live thief goroutines
	wake    chan struct{}

	// Telemetry (see partelem.go). STW accounting is always on; the heat
	// tables fill only on sampled acquisitions. The pending/held stamps are
	// what the stall watchdog reads, so they are plain atomics settable
	// without any engine lock.
	stw             [stwNumCauses]stwCounter
	stwPendingSince atomic.Int64 // unix nanos a stop-the-world began draining; 0 = none
	stwPendingCause atomic.Int32
	leaseHeldSince  atomic.Int64 // unix nanos the write lease was acquired; 0 = free
	leaseCause      atomic.Int32
	opsDone         atomic.Int64               // completed operations (watchdog progress signal)
	levelHeat       atomic.Pointer[[]heatCell] // per-level sampled contention; grown under the write lease
	stripeHeat      [cacheStripes]heatCell     // per-cache-stripe sampled contention
}

func newParEngine(m *Manager, workers int) *parEngine {
	e := &parEngine{
		workers:     workers,
		deadPending: make(map[int32]struct{}),
		wake:        make(chan struct{}, 1),
	}
	e.mem.init()
	e.tableMu = make([]padMutex, len(m.subtables))
	e.cacheMu = make([]padMutex, cacheStripes)
	e.liveBase.Store(int64(m.liveCount))
	e.deadBase.Store(int64(m.deadCount))
	e.peakLive.Store(int64(m.stats.PeakLive))
	e.reorderThresholdA.Store(int64(m.reorderThreshold))
	e.autoReorderA.Store(m.autoReorder)
	e.all.Store([]*parWorker{})
	heat := make([]heatCell, len(m.subtables))
	e.levelHeat.Store(&heat)
	return e
}

// growLevelHeat extends the per-level heat table alongside tableMu (AddVar
// under the write lease); existing cells carry over so history survives.
func (e *parEngine) growLevelHeat(levels int) {
	old := *e.levelHeat.Load()
	if len(old) >= levels {
		return
	}
	grown := make([]heatCell, levels)
	for i := range old {
		grown[i].hits.Store(old[i].hits.Load())
		grown[i].waitNS.Store(old[i].waitNS.Load())
	}
	e.levelHeat.Store(&grown)
}

// syncEnter folds the atomic counter deltas into the manager's plain fields.
// Callers own a quiescent manager (stop-the-world or the write lease).
func (e *parEngine) syncEnter(m *Manager) {
	m.liveCount = int(e.liveBase.Load() + e.liveDelta.Swap(0))
	m.deadCount = int(e.deadBase.Load() + e.deadDelta.Swap(0))
	e.liveBase.Store(int64(m.liveCount))
	e.deadBase.Store(int64(m.deadCount))
	if p := int(e.peakLive.Load()); p > m.stats.PeakLive {
		m.stats.PeakLive = p
	}
}

// syncExit re-publishes the plain counters into the atomic mirrors after a
// quiescent section that may have changed them.
func (e *parEngine) syncExit(m *Manager) {
	e.liveBase.Store(int64(m.liveCount))
	e.deadBase.Store(int64(m.deadCount))
	e.liveDelta.Store(0)
	e.deadDelta.Store(0)
	if int64(m.stats.PeakLive) > e.peakLive.Load() {
		e.peakLive.Store(int64(m.stats.PeakLive))
	}
	if int64(m.reorderThreshold) != e.reorderThresholdA.Load() {
		e.reorderThresholdA.Store(int64(m.reorderThreshold))
	}
}

// liveApprox is the advisory live-node count readable from any goroutine.
func (e *parEngine) liveApprox() int64 { return e.liveBase.Load() + e.liveDelta.Load() }

func (e *parEngine) bumpPeak() {
	live := e.liveApprox()
	for {
		cur := e.peakLive.Load()
		if live <= cur || e.peakLive.CompareAndSwap(cur, live) {
			return
		}
	}
}

// stopTheWorldSynced wraps a stop-the-world with counter folding and the
// stats lock (fn may read or write m.stats, racing Stats() snapshots
// otherwise). cause feeds the quiescence accountant: the drain time (wait)
// and exclusion time (pause) are attributed per cause, and the pending
// stamp makes a stuck barrier visible to the stall watchdog.
func (e *parEngine) stopTheWorldSynced(m *Manager, haveLease bool, cause stwCause, fn func()) {
	start := time.Now()
	e.stwPendingCause.Store(int32(cause))
	e.stwPendingSince.Store(start.UnixNano())
	var wait, pause time.Duration
	e.mem.stopTheWorld(haveLease, func() {
		wait = time.Since(start)
		t0 := time.Now()
		e.statsMu.Lock()
		defer func() {
			e.statsMu.Unlock()
			pause = time.Since(t0)
		}()
		e.syncEnter(m)
		fn()
		e.syncExit(m)
	})
	e.stwPendingSince.Store(0)
	m.recordSTW(cause, wait, pause)
}

// exclusive runs fn with the manager fully quiescent: no operation in
// flight, counters folded to their serial form. The serial code paths are
// valid inside fn. On a serial manager fn just runs.
func (m *Manager) exclusive(fn func()) { m.exclusiveCause(stwExclusive, fn) }

// exclusiveCause is exclusive with quiescence accounting: the write-lease
// acquisition wait and the held duration are attributed to cause, and the
// held stamp makes a wedged exclusive section visible to the stall
// watchdog.
func (m *Manager) exclusiveCause(cause stwCause, fn func()) {
	if m.par == nil {
		fn()
		return
	}
	e := m.par
	start := time.Now()
	e.opLease.Lock()
	wait := time.Since(start)
	held := time.Now()
	e.leaseCause.Store(int32(cause))
	e.leaseHeldSince.Store(held.UnixNano())
	// statsMu: serial code inside fn writes m.stats bare, and an idle
	// thief may still be flushing its worker-local counters after the op
	// that spawned it ended (the flush is not tied to any lease).
	e.statsMu.Lock()
	e.syncEnter(m)
	defer func() {
		e.syncExit(m)
		e.statsMu.Unlock()
		e.leaseHeldSince.Store(0)
		// Read the pause before unlocking: once the lease is free the
		// next section's pause starts, and the two must not overlap.
		pause := time.Since(held)
		e.opLease.Unlock()
		m.recordSTW(cause, wait, pause)
	}()
	fn()
}

// readLocked runs fn under the read lease plus the memory lease: enough
// for read-only traversals of live nodes (reordering is excluded; GC never
// frees or rewrites the children of live nodes). The memory lease is not
// optional: a concurrent operation can stop the world mid-traversal to
// grow the arena — it holds the read lease itself, so only barrier
// participants are drained — and the m.nodes header swap would race a
// bare traversal. fn must not allocate nodes (it would try to stop the
// world while holding the barrier).
func (m *Manager) readLocked(fn func()) {
	if m.par == nil {
		fn()
		return
	}
	m.par.opLease.RLock()
	defer m.par.opLease.RUnlock()
	m.par.mem.enter()
	defer m.par.mem.exit()
	fn()
}

// reconcileDeaths restores the serial reference-counting invariant: every
// node whose count hit zero on a parallel manager still holds its child
// references; drop them so the following sweep sees the same state a serial
// manager would. The drops cascade (children dying here re-enter the
// pending set), so the loop runs to fixpoint. Runs on a quiescent manager,
// at the start of every gc.
func (m *Manager) reconcileDeaths() {
	e := m.par
	for {
		e.deadMu.Lock()
		pend := e.deadPending
		e.deadPending = make(map[int32]struct{})
		e.deadMu.Unlock()
		if len(pend) == 0 {
			return
		}
		for idx := range pend {
			n := &m.nodes[idx]
			if n.ref != 0 || n.level < 0 {
				continue // resurrected (or already freed) since it was recorded
			}
			m.dropChildRefs(idx)
		}
	}
}

// dropChildRefs releases the references a dead node holds on its children.
// The pattern (load children, then deref) is shared by reconcileDeaths and
// the reordering sweeps that free dead nodes directly.
func (m *Manager) dropChildRefs(idx int32) {
	hi, lo := m.nodes[idx].hi, m.nodes[idx].lo
	m.derefIndex(hi.index())
	m.derefIndex(lo.index())
}

// refParIndex atomically adds one reference. Resurrection of a dead node is
// a bare 0->1 transition: in parallel mode dead nodes keep their child
// references, so only the counters move. Callers hold the memory lease.
func (m *Manager) refParIndex(idx int32) {
	n := &m.nodes[idx]
	for {
		old := atomic.LoadInt32(&n.ref)
		if old == refSaturated {
			return
		}
		if atomic.CompareAndSwapInt32(&n.ref, old, old+1) {
			if old == 0 {
				e := m.par
				e.deadMu.Lock()
				delete(e.deadPending, idx)
				e.deadMu.Unlock()
				e.deadDelta.Add(-1)
				e.liveDelta.Add(1)
				e.resurrected.Add(1)
				e.bumpPeak()
			}
			return
		}
	}
}

// derefParIndex atomically drops one reference. A 1->0 transition records
// the node in the pending-death set without touching its children (deferred
// death; see reconcileDeaths). Callers hold the memory lease.
func (m *Manager) derefParIndex(idx int32) {
	n := &m.nodes[idx]
	for {
		old := atomic.LoadInt32(&n.ref)
		if old == refSaturated {
			return
		}
		if old <= 0 {
			panic("bdd: Deref of unreferenced node")
		}
		if atomic.CompareAndSwapInt32(&n.ref, old, old-1) {
			if old == 1 {
				e := m.par
				e.deadMu.Lock()
				e.deadPending[idx] = struct{}{}
				e.deadMu.Unlock()
				e.liveDelta.Add(-1)
				e.deadDelta.Add(1)
			}
			return
		}
	}
}

// refPublic / derefPublic are the Manager.Ref / Manager.Deref paths on a
// parallel manager: they take both leases briefly so they can run while
// other operations are in flight yet stay excluded from reordering and GC.
func (m *Manager) refPublic(f Ref) Ref {
	e := m.par
	e.opLease.RLock()
	e.mem.enter()
	m.refParIndex(f.index())
	e.mem.exit()
	e.opLease.RUnlock()
	return f
}

func (m *Manager) derefPublic(f Ref) {
	e := m.par
	e.opLease.RLock()
	e.mem.enter()
	m.derefParIndex(f.index())
	e.mem.exit()
	e.opLease.RUnlock()
}

// acquireWorker hands out a worker context (pooled; the pool grows with the
// number of concurrently initiated operations, not just Config.Workers).
func (e *parEngine) acquireWorker(m *Manager) *parWorker {
	e.poolMu.Lock()
	var w *parWorker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.poolMu.Unlock()
		return w
	}
	w = &parWorker{m: m, e: e}
	all := e.all.Load().([]*parWorker)
	grown := make([]*parWorker, len(all)+1)
	copy(grown, all)
	grown[len(all)] = w
	e.all.Store(grown)
	e.poolMu.Unlock()
	return w
}

func (e *parEngine) releaseWorker(w *parWorker) {
	w.ctx = nil
	e.poolMu.Lock()
	e.idle = append(e.idle, w)
	e.poolMu.Unlock()
}

// flushStats merges the worker's local counters into the manager.
func (w *parWorker) flushStats() {
	e := w.e
	e.statsMu.Lock()
	w.m.stats.merge(&w.stats)
	e.statsMu.Unlock()
	w.stats = Stats{}
}

// merge adds the operation counters of o into s (durations and maxima fold
// accordingly).
func (s *Stats) merge(o *Stats) {
	s.UniqueLookups += o.UniqueLookups
	s.UniqueHits += o.UniqueHits
	s.UniqueGrows += o.UniqueGrows
	s.CacheLookups += o.CacheLookups
	s.CacheHits += o.CacheHits
	s.CacheInserts += o.CacheInserts
	s.CacheEvictions += o.CacheEvictions
	s.Resurrected += o.Resurrected
	if o.PeakITEDepth > s.PeakITEDepth {
		s.PeakITEDepth = o.PeakITEDepth
	}
}

// signalWork nudges the thief pool after a fork: wake a sleeper and spawn a
// new thief if the pool is below strength.
func (e *parEngine) signalWork(m *Manager) {
	select {
	case e.wake <- struct{}{}:
	default:
	}
	if int(e.thieves.Load()) < e.workers-1 {
		e.thieves.Add(1)
		go e.thiefLoop(m)
	}
}

// stealAny scans every worker deque for a queued task. skip is the caller's
// own worker (its deque is scanned too — the owner may have stranded work —
// but last).
func (e *parEngine) stealAny(skip *parWorker) *parTask {
	all := e.all.Load().([]*parWorker)
	for _, w := range all {
		if w == skip {
			continue
		}
		if t := w.deque.steal(nil); t != nil {
			return t
		}
	}
	if skip != nil {
		return skip.deque.steal(nil)
	}
	return nil
}

// thiefLoop is the body of a background worker: steal, execute, sleep,
// expire. Thieves never hold the operation lease — tasks are only in flight
// while their owner's operation holds it.
func (e *parEngine) thiefLoop(m *Manager) {
	defer e.thieves.Add(-1)
	w := e.acquireWorker(m)
	defer e.releaseWorker(w)
	idle := time.NewTimer(thiefIdleTimeout)
	defer idle.Stop()
	for {
		if t := e.stealAny(w); t != nil {
			e.runStolen(w, t, false)
			e.tasksStolen.Add(1)
			continue
		}
		w.flushStats()
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(thiefIdleTimeout)
		var idleStart time.Time
		if telemetryArmed() {
			idleStart = time.Now()
		}
		select {
		case <-e.wake:
			if !idleStart.IsZero() {
				w.telem.idleNS.Add(time.Since(idleStart).Nanoseconds())
			}
		case <-idle.C:
			if !idleStart.IsZero() {
				w.telem.idleNS.Add(time.Since(idleStart).Nanoseconds())
			}
			return
		}
	}
}

// runStolen executes a claimed task on behalf of its owner. OpAborted
// panics are absorbed into the task (the owner re-raises them at its join
// point); other panics are genuine bugs and propagate. haveLease tells
// whether the caller already holds the memory lease (a joiner helping out
// does; a thief does not — and must not nest enter, or it deadlocks against
// a pending stop-the-world).
func (e *parEngine) runStolen(w *parWorker, t *parTask, haveLease bool) {
	if !haveLease {
		e.mem.enter()
		defer e.mem.exit()
	}
	if !t.forkAt.IsZero() {
		w.telem.stealWait.observe(time.Since(t.forkAt).Nanoseconds())
	}
	w.telem.tasks.Add(1)
	var runStart time.Time
	if telemetryArmed() {
		runStart = time.Now()
	}
	savedCtx := w.ctx
	savedStart := w.opStart.Load()
	savedCode := w.opCode.Load()
	w.ctx = t.ctx
	w.opStart.Store(time.Now().UnixNano())
	w.opCode.Store(opcStolen)
	defer func() {
		if !runStart.IsZero() {
			w.telem.busyNS.Add(time.Since(runStart).Nanoseconds())
		}
		w.opStart.Store(savedStart)
		w.opCode.Store(savedCode)
		w.ctx = savedCtx
		if r := recover(); r != nil {
			ab, ok := r.(OpAborted)
			if !ok {
				t.ctx.abort("panic")
				t.aborted = true
				t.state.Store(taskDone)
				t.ctx.outstanding.Add(-1)
				panic(r)
			}
			t.ctx.abort(ab.Reason)
			t.aborted = true
		}
		t.state.Store(taskDone)
		t.ctx.outstanding.Add(-1)
	}()
	if t.ctx.aborted() {
		t.aborted = true
		return
	}
	t.res = w.m.runTaskBody(w, t)
}

// runTaskBody dispatches a task to its recursion.
func (m *Manager) runTaskBody(w *parWorker, t *parTask) Ref {
	switch t.kind {
	case taskAnd:
		return m.andRec(w, t.f, t.g, t.depth)
	case taskXor:
		return m.xorRec(w, t.f, t.g, t.depth)
	case taskIte:
		return m.iteRec(w, t.f, t.g, t.h, t.depth)
	case taskExists:
		return m.existsRec(w, t.f, t.g, t.depth)
	default: // taskAndExists
		return m.andExistsRec(w, t.f, t.g, t.h, t.depth)
	}
}

// fork queues a subproblem and wakes the thief pool. Sampled forks stamp
// the task (steal-latency attribution downstream) and record the resulting
// deque depth.
func (w *parWorker) fork(kind uint8, f, g, h Ref, depth int32) *parTask {
	t := &parTask{ctx: w.ctx, kind: kind, f: f, g: g, h: h, depth: depth}
	sampled := w.sampled()
	if sampled {
		t.forkAt = time.Now()
	}
	w.ctx.outstanding.Add(1)
	n := w.deque.push(t)
	if sampled {
		w.telem.dequeLen.observe(int64(n))
	}
	w.e.signalWork(w.m)
	return t
}

// shouldFork is the granularity test at a fork site; a nil (serial) worker
// never forks.
func (w *parWorker) shouldFork(depth int32) bool {
	return w != nil && depth < parForkDepth && !w.ctx.aborted()
}

// join retrieves a forked task's result, running it inline when it has not
// been stolen and helping with other tasks while waiting when it has. An
// aborted task re-raises OpAborted in the owner.
func (m *Manager) join(w *parWorker, t *parTask) Ref {
	if t.state.CompareAndSwap(taskQueued, taskClaimed) {
		w.e.tasksLocal.Add(1)
		defer func() {
			t.state.Store(taskDone)
			t.ctx.outstanding.Add(-1)
		}()
		return m.runTaskBody(w, t)
	}
	var waitStart time.Time
	if telemetryArmed() {
		waitStart = time.Now()
	}
	spins := 0
	for {
		if t.state.Load() == taskDone {
			if !waitStart.IsZero() {
				// Includes help-work executed while blocked: joinWait is the
				// owner's wall time at the join point, not pure idling.
				w.telem.joinWait.observe(time.Since(waitStart).Nanoseconds())
			}
			if t.aborted {
				panic(OpAborted{Reason: *t.ctx.reason.Load()})
			}
			return t.res
		}
		w.checkpoint()
		if st := w.e.stealAny(w); st != nil {
			w.e.runStolen(w, st, true)
			w.e.tasksStolen.Add(1)
			spins = 0
			continue
		}
		spins++
		if spins < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// beginOp opens a parallel operation: read lease, worker, context, memory
// lease. code names the operation for watchdog attribution. Callers pair it
// with endOp via defer.
func (m *Manager) beginOp(code int32) (*parWorker, *opCtx) {
	e := m.par
	w := e.acquireWorker(m)
	w.ctx = &opCtx{}
	if telemetryArmed() {
		t0 := time.Now()
		e.mem.enter()
		w.telem.leaseWait.observe(time.Since(t0).Nanoseconds())
	} else {
		e.mem.enter()
	}
	w.telem.ops.Add(1)
	w.opCode.Store(code)
	w.opStart.Store(time.Now().UnixNano())
	return w, w.ctx
}

// endOp closes a parallel operation: releases the memory lease, drains any
// tasks the operation still owns (only on abort paths — the normal path
// joins everything), flushes stats, and runs a pending cache-resize epoch.
// It must run under the operation's read lease, deferred before the body.
func (m *Manager) endOp(w *parWorker, ctx *opCtx) {
	e := m.par
	e.mem.exit()
	if ctx.outstanding.Load() != 0 {
		m.drainCtx(w, ctx)
	}
	if telemetryArmed() {
		if start := w.opStart.Load(); start != 0 {
			w.telem.busyNS.Add(time.Now().UnixNano() - start)
		}
	}
	w.opStart.Store(0)
	w.opCode.Store(opcNone)
	e.opsDone.Add(1)
	w.flushStats()
	e.releaseWorker(w)
	m.maybeCacheEpochPar()
}

// drainCtx claims and cancels the context's queued tasks and waits out its
// running ones. Called without the memory lease, so running tasks remain
// free to stop the world while finishing.
func (m *Manager) drainCtx(w *parWorker, ctx *opCtx) {
	ctx.abort("operation unwound")
	e := m.par
	for ctx.outstanding.Load() != 0 {
		claimed := false
		all := e.all.Load().([]*parWorker)
		for _, o := range all {
			for {
				t := o.deque.steal(ctx)
				if t == nil {
					break
				}
				t.aborted = true
				t.state.Store(taskDone)
				ctx.outstanding.Add(-1)
				claimed = true
			}
		}
		if !claimed {
			runtime.Gosched()
		}
	}
}

// maybeCacheEpochPar closes a computed-cache resize epoch at operation exit
// when the lookup budget has elapsed; the resize itself (and the epoch
// bookkeeping) is a stop-the-world event.
func (m *Manager) maybeCacheEpochPar() {
	e := m.par
	e.statsMu.Lock()
	due := m.stats.CacheLookups+e.extraCacheLooks.Load()-m.cache.epochLookups >=
		int64(cacheEpochFactor)<<m.cache.bits
	e.statsMu.Unlock()
	if !due {
		return
	}
	e.stopTheWorldSynced(m, false, stwCacheResize, func() {
		// Re-check under the lock: another exit may have closed the epoch.
		m.foldExtraCacheStats()
		if m.stats.CacheLookups-m.cache.epochLookups >= int64(cacheEpochFactor)<<m.cache.bits {
			m.cacheEpoch()
		}
	})
}

// foldExtraCacheStats merges the workerless cache counters into m.stats.
// Callers hold statsMu (or a quiescent manager).
func (m *Manager) foldExtraCacheStats() {
	e := m.par
	m.stats.CacheLookups += e.extraCacheLooks.Swap(0)
	m.stats.CacheHits += e.extraCacheHits.Swap(0)
	m.stats.CacheInserts += e.extraCacheIns.Swap(0)
	m.stats.CacheEvictions += e.extraCacheEvicts.Swap(0)
	m.stats.Resurrected += e.resurrected.Swap(0)
}

// checkLimitsPar is the parallel-mode limit check at allocation sites.
func (m *Manager) checkLimitsPar(w *parWorker) {
	e := m.par
	if m.nodeLimit > 0 && e.liveApprox() > int64(m.nodeLimit) {
		reason := "live nodes exceed limit"
		if w.ctx.abort(reason) && m.observer != nil {
			m.observer.Abort(reason)
		}
		panic(OpAborted{Reason: reason})
	}
	if !m.deadline.IsZero() {
		w.allocTick++
		if w.allocTick >= deadlineCheckInterval {
			w.allocTick = 0
			if time.Now().After(m.deadline) {
				w.ctx.abort("deadline exceeded")
				panic(OpAborted{Reason: "deadline exceeded"})
			}
		}
	}
}

// allocNodePar returns a fresh arena slot for a parallel worker: private
// chunk first, then a chunk carved off the global free list, then a chunk of
// virgin slots claimed by CAS on the arena cursor, and as a last resort a
// stop-the-world garbage collection or arena growth.
func (m *Manager) allocNodePar(w *parWorker) int32 {
	w.checkpoint()
	m.checkLimitsPar(w)
	for {
		if n := len(w.chunk); n > 0 {
			idx := w.chunk[n-1]
			w.chunk = w.chunk[:n-1]
			return idx
		}
		e := m.par
		e.freeMu.Lock()
		for len(w.chunk) < allocChunk && m.free != nilIndex {
			idx := m.free
			m.free = m.nodes[idx].next
			w.chunk = append(w.chunk, idx)
		}
		e.freeMu.Unlock()
		if len(w.chunk) > 0 {
			continue
		}
		claimed := false
		for {
			used := atomic.LoadInt64(&m.nodesUsed)
			limit := int64(len(m.nodes))
			if used >= limit {
				break
			}
			n := int64(allocChunk)
			if used+n > limit {
				n = limit - used
			}
			if atomic.CompareAndSwapInt64(&m.nodesUsed, used, used+n) {
				for i := used; i < used+n; i++ {
					w.chunk = append(w.chunk, int32(i))
				}
				claimed = true
				break
			}
		}
		if claimed {
			continue
		}
		// Arena exhausted: stop the world, then collect or grow. Another
		// worker may have resolved the pressure while we waited.
		e.stopTheWorldSynced(m, true, stwAlloc, func() {
			if atomic.LoadInt64(&m.nodesUsed) < int64(len(m.nodes)) || m.free != nilIndex {
				return
			}
			if m.deadCount > 2048 && float64(m.deadCount) > m.gcFraction*float64(len(m.nodes)) {
				m.gc(true)
			}
			if m.free == nilIndex && m.nodesUsed == int64(len(m.nodes)) {
				m.growArena()
			}
		})
	}
}

// putBackSlot returns an unused slot claimed by a lost insertion race. The
// slot was never published, so plain writes suffice; the free-slot stamp
// (level -1, ref 0) keeps diagnostics from mistaking it for a live node.
func (w *parWorker) putBackSlot(idx int32) {
	n := &w.m.nodes[idx]
	n.level = -1
	n.ref = 0
	w.chunk = append(w.chunk, idx)
}

// makeNodePar is makeNode under per-level locking: probe under the level
// mutex, allocate outside it, re-probe and publish under it again (the
// insertion race loser returns its slot to the private chunk).
func (m *Manager) makeNodePar(w *parWorker, level int32, hi, lo Ref) Ref {
	if hi == lo {
		return m.refW(w, hi)
	}
	complement := hi.IsComplement()
	if complement {
		hi ^= 1
		lo ^= 1
	}
	w.stats.UniqueLookups++
	e := m.par
	mu := &e.tableMu[level]
	if w.sampled() {
		t0 := time.Now()
		mu.Lock()
		ns := time.Since(t0).Nanoseconds()
		w.telem.uniqueWait.observe(ns)
		if heat := *e.levelHeat.Load(); int(level) < len(heat) {
			heat[level].bump(ns)
		}
	} else {
		mu.Lock()
	}
	st := &m.subtables[level]
	b := hash3(level, hi, lo) & st.mask
	for idx := st.buckets[b]; idx != nilIndex; idx = m.nodes[idx].next {
		n := &m.nodes[idx]
		if n.hi == hi && n.lo == lo {
			mu.Unlock()
			w.stats.UniqueHits++
			m.refParIndex(idx)
			return makeRef(idx, complement)
		}
	}
	mu.Unlock()
	idx := m.allocNodePar(w) // safe point: may stop the world
	n := &m.nodes[idx]
	n.level = level
	n.hi = hi
	n.lo = lo
	n.next = nilIndex
	atomic.StoreInt32(&n.ref, 1)
	mu.Lock()
	st = &m.subtables[level]
	b = hash3(level, hi, lo) & st.mask
	chain := 0
	for probe := st.buckets[b]; probe != nilIndex; probe = m.nodes[probe].next {
		chain++
		pn := &m.nodes[probe]
		if pn.hi == hi && pn.lo == lo {
			mu.Unlock()
			w.putBackSlot(idx)
			w.stats.UniqueHits++
			m.refParIndex(probe)
			return makeRef(probe, complement)
		}
	}
	n.next = st.buckets[b]
	st.buckets[b] = idx
	st.count++
	if st.count > loadFactor*len(st.buckets) ||
		(chain >= longChain && 2*st.count > len(st.buckets)) {
		w.stats.UniqueGrows++
		m.growSubtable(level)
	}
	mu.Unlock()
	e.liveDelta.Add(1)
	e.bumpPeak()
	m.refChildPar(hi)
	m.refChildPar(lo)
	return makeRef(idx, complement)
}

// refChildPar adds the reference a freshly published parent holds on child.
func (m *Manager) refChildPar(child Ref) {
	n := &m.nodes[child.index()]
	for {
		old := atomic.LoadInt32(&n.ref)
		if old == refSaturated {
			return
		}
		if atomic.CompareAndSwapInt32(&n.ref, old, old+1) {
			return
		}
	}
}

// cacheStripe returns the lock covering a set.
func (e *parEngine) cacheStripe(set uint32) *padMutex {
	return &e.cacheMu[set&(cacheStripes-1)]
}

// cacheLookupPar probes the computed table under the set's stripe lock. A
// hit result may be dead; callers revive it (refW) while still holding
// the memory lease. w may be nil (workerless callers); stats then go to the
// engine's atomic side counters.
func (m *Manager) cacheLookupPar(w *parWorker, op uint32, a, b, c Ref) (Ref, bool) {
	e := m.par
	if w != nil {
		w.stats.CacheLookups++
	} else {
		e.extraCacheLooks.Add(1)
	}
	cc := &m.cache
	set := cacheHash(op, a, b, c) & cc.setMask
	base := set * cacheWays
	mu := e.cacheStripe(set)
	if w != nil && w.sampled() {
		t0 := time.Now()
		mu.Lock()
		ns := time.Since(t0).Nanoseconds()
		w.telem.cacheWait.observe(ns)
		e.stripeHeat[set&(cacheStripes-1)].bump(ns)
	} else {
		mu.Lock()
	}
	for i := uint32(0); i < cacheWays; i++ {
		ent := &cc.entries[base+i]
		if ent.op == op && ent.a == a && ent.b == b && ent.c == c &&
			ent.gen == cc.gen && ent.res != invalidRef {
			ent.age = e.cacheTick.Add(1)
			res := ent.res
			mu.Unlock()
			if w != nil {
				w.stats.CacheHits++
			} else {
				e.extraCacheHits.Add(1)
			}
			return res, true
		}
	}
	mu.Unlock()
	return invalidRef, false
}

// cacheInsertPar records a result under the set's stripe lock. Epoch
// closing is deferred to operation exit (maybeCacheEpochPar).
func (m *Manager) cacheInsertPar(w *parWorker, op uint32, a, b, c Ref, res Ref) {
	e := m.par
	cc := &m.cache
	set := cacheHash(op, a, b, c) & cc.setMask
	base := set * cacheWays
	mu := e.cacheStripe(set)
	mu.Lock()
	var free, oldest, match *cacheEntry
	for i := uint32(0); i < cacheWays; i++ {
		ent := &cc.entries[base+i]
		if ent.res == invalidRef || ent.gen != cc.gen {
			if free == nil {
				free = ent
			}
			continue
		}
		if ent.op == op && ent.a == a && ent.b == b && ent.c == c {
			match = ent
			break
		}
		if oldest == nil || ent.age < oldest.age {
			oldest = ent
		}
	}
	slot := match
	evicted := false
	if slot == nil {
		slot = free
	}
	if slot == nil {
		slot = oldest
		evicted = true
	}
	*slot = cacheEntry{a: a, b: b, c: c, op: op, res: res, gen: cc.gen, age: e.cacheTick.Add(1)}
	mu.Unlock()
	if w != nil {
		w.stats.CacheInserts++
		if evicted {
			w.stats.CacheEvictions++
		}
	} else {
		e.extraCacheIns.Add(1)
		if evicted {
			e.extraCacheEvicts.Add(1)
		}
	}
}
