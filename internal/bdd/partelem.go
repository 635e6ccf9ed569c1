package bdd

// Parallel-engine telemetry: sampled lock-wait and steal attribution, always-on
// stop-the-world (quiescence) accounting, and a stall watchdog.
//
// Design constraints (see DESIGN.md "Parallel observability"):
//
//   - Fine-grained instrumentation (lock waits, steal latency, deque depth,
//     stripe heat) is sampled: a package-wide power-of-two sampling mask is
//     checked with one atomic load per site, and a disabled mask (the
//     default) reduces every site to that single load plus a predictable
//     branch. Sampled sites pay two time.Now calls.
//   - All sampled counters are per-worker (parWorker owns its workerTelem;
//     the pool hands a worker to exactly one goroutine at a time), written
//     without contention and merged only at snapshot time (ParTelemetry).
//     Snapshot reads race the writers by design; the histograms use atomics,
//     so snapshots are internally consistent per counter and advisory across
//     counters.
//   - Stop-the-world accounting is always on: STW epochs are rare (orders of
//     magnitude below node operations), and they are exactly the serial
//     sections an Amdahl breakdown needs, so they are never sampled away.
//   - The watchdog never blocks on engine locks: it reads atomics and uses
//     TryLock on the deques, so it can still report when the engine is stuck.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultParSampleRate is the 1-in-N sampling rate obs sessions arm by
// default: dense enough for stable wait histograms on millions of node
// operations, sparse enough to stay inside the overhead budget.
const DefaultParSampleRate = 256

// parSampleMask is rate-1 for a power-of-two rate, or -1 when fine-grained
// sampling is off (the default). Package-wide, like defaultWorkers: the
// cmd wiring arms it once, managers are created deep inside compilation.
var parSampleMask atomic.Int64

func init() { parSampleMask.Store(-1) }

// SetParSampling arms 1-in-rate sampling of the parallel engine's
// fine-grained telemetry (lock waits, steal latency, deque depth, stripe
// heat). rate is rounded up to a power of two; rate <= 0 disables sampling.
// Coarse telemetry (stop-the-world accounting, per-worker task counts) is
// always on regardless.
func SetParSampling(rate int) {
	if rate <= 0 {
		parSampleMask.Store(-1)
		return
	}
	p := 1
	for p < rate {
		p <<= 1
	}
	parSampleMask.Store(int64(p - 1))
}

// ParSampling returns the current sampling rate (0 = disabled).
func ParSampling() int {
	m := parSampleMask.Load()
	if m < 0 {
		return 0
	}
	return int(m + 1)
}

// telemetryArmed reports whether fine-grained sampling is on at all; sites
// whose events are rare enough to measure unconditionally-when-armed (join
// blocking, thief idling) gate on this instead of the per-event tick.
func telemetryArmed() bool { return parSampleMask.Load() >= 0 }

// sampled is the per-event sampling decision: one atomic load, and on the
// armed path a per-worker tick counter masked against the rate.
func (w *parWorker) sampled() bool {
	mask := parSampleMask.Load()
	if mask < 0 {
		return false
	}
	w.telem.tick++
	return int64(w.telem.tick)&mask == 0
}

// waitHistBuckets spans 1ns..~2s in power-of-two buckets; the last bucket
// absorbs everything beyond.
const waitHistBuckets = 32

// waitHist is a lock-free duration histogram. One per subsystem per worker,
// so writes are uncontended; snapshots read racily (advisory).
type waitHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [waitHistBuckets]atomic.Int64
}

func (h *waitHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	b := 0
	for v := ns; v > 0 && b < waitHistBuckets-1; v >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
}

// addTo folds this histogram racily into a plain bucket array (snapshot
// merging across workers).
func (h *waitHist) addTo(buckets *[waitHistBuckets]int64, ws *WaitStats) {
	ws.Count += h.count.Load()
	ws.SumNS += h.sum.Load()
	if m := h.max.Load(); m > ws.MaxNS {
		ws.MaxNS = m
	}
	for i := range h.buckets {
		buckets[i] += h.buckets[i].Load()
	}
}

// quantile returns the upper bound of the bucket holding the q-quantile,
// clamped to the maximum actually observed: the bucket bound is a
// power-of-two upper estimate, so with few samples it can exceed every
// observation (a single 100ns wait lands in the 64..128 bucket and would
// otherwise report P50 = P95 = 128ns — a latency no one ever paid).
func histQuantile(buckets *[waitHistBuckets]int64, count, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	target := int64(q * float64(count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen >= target {
			if i == 0 {
				return 0
			}
			bound := int64(1) << uint(i) // bucket i holds (2^(i-1), 2^i]
			if i == waitHistBuckets-1 || bound > max {
				// The final bucket absorbs everything beyond its nominal
				// range, so the observed max is its only honest bound.
				bound = max
			}
			return bound
		}
	}
	return max // last bucket absorbs everything beyond 2^(waitHistBuckets-1)
}

// WaitStats is the merged snapshot of one wait histogram across workers.
type WaitStats struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

// MeanNS returns the mean observed value (0 when empty).
func (ws WaitStats) MeanNS() int64 {
	if ws.Count == 0 {
		return 0
	}
	return ws.SumNS / ws.Count
}

// workerTelem holds one worker's sampled counters; embedded in parWorker so
// every write is goroutine-local.
type workerTelem struct {
	tick uint32 // sampling tick; single-goroutine, no atomicity needed

	uniqueWait waitHist // unique-table level-lock acquisition wait
	cacheWait  waitHist // computed-cache stripe-lock acquisition wait
	leaseWait  waitHist // memBarrier entry wait (stop-the-world parks)
	stealWait  waitHist // fork-to-claim latency of stolen tasks
	joinWait   waitHist // owner wall time blocked at a stolen join
	dequeLen   waitHist // deque depth observed at sampled forks

	ops    atomic.Int64 // public operations begun on this worker
	tasks  atomic.Int64 // stolen tasks executed on this worker
	busyNS atomic.Int64 // time inside operations / stolen tasks (armed only)
	idleNS atomic.Int64 // thief time parked waiting for work (armed only)
}

// heatCell accumulates sampled contention on one unique level or cache
// stripe.
type heatCell struct {
	hits   atomic.Int64
	waitNS atomic.Int64
}

func (c *heatCell) bump(ns int64) {
	c.hits.Add(1)
	c.waitNS.Add(ns)
}

// stwCause enumerates why the parallel engine excluded or parked its
// workers; index into parEngine.stw.
type stwCause int32

const (
	stwGC          stwCause = iota // stop-the-world garbage collection
	stwAlloc                       // arena pressure: GC-or-grow under allocation
	stwCacheResize                 // computed-cache epoch close / resize
	stwReorder                     // dynamic reordering (auto or explicit)
	stwSaveLoad                    // Load deserialization
	stwDebug                       // DebugCheck invariant sweep
	stwExclusive                   // other exclusive sections (AddVar, stats walks, ...)
	stwNumCauses
)

var stwCauseNames = [stwNumCauses]string{
	"gc", "alloc", "cache_resize", "reorder", "save_load", "debug_check", "exclusive",
}

func (c stwCause) String() string {
	if c < 0 || c >= stwNumCauses {
		return "unknown"
	}
	return stwCauseNames[c]
}

// stwCounter is the always-on per-cause accounting of one write-lease /
// stop-the-world epoch class.
type stwCounter struct {
	count   atomic.Int64
	waitNS  atomic.Int64 // drain / lock-acquisition time before exclusion held
	pauseNS atomic.Int64 // time the world stayed excluded (fn duration)
}

// recordSTW updates the per-cause totals and notifies the manager's
// observer, if it has one. Runs after the world is released, so the
// observer may take its time.
func (m *Manager) recordSTW(cause stwCause, wait, pause time.Duration) {
	e := m.par
	c := &e.stw[cause]
	c.count.Add(1)
	c.waitNS.Add(wait.Nanoseconds())
	c.pauseNS.Add(pause.Nanoseconds())
	if m.observer != nil {
		m.observer.STW(cause.String(), e.workers, wait, pause)
	}
}

// stwTotals sums the per-cause counts and pauses (for Stats snapshots).
// Waits are left out: concurrent initiators wait through each other's
// pauses, so summing them would count the same wall time more than once.
func (e *parEngine) stwTotals() (count int64, pause time.Duration) {
	var ns int64
	for i := range e.stw {
		count += e.stw[i].count.Load()
		ns += e.stw[i].pauseNS.Load()
	}
	return count, time.Duration(ns)
}

// Exported snapshot types ------------------------------------------------

// STWStat is the per-cause aggregate of write-lease / stop-the-world epochs.
type STWStat struct {
	Cause   string `json:"cause"`
	Count   int64  `json:"count"`
	WaitNS  int64  `json:"wait_ns"`
	PauseNS int64  `json:"pause_ns"`
}

// HeatEntry is one unique level or cache stripe with its sampled contention.
type HeatEntry struct {
	Index  int   `json:"index"`
	Hits   int64 `json:"hits"`
	WaitNS int64 `json:"wait_ns"`
}

// WorkerStat is one pooled worker's task/idle accounting.
type WorkerStat struct {
	Ops        int64  `json:"ops"`
	Tasks      int64  `json:"tasks"`
	BusyNS     int64  `json:"busy_ns"`
	IdleNS     int64  `json:"idle_ns"`
	DequeDepth int    `json:"deque_depth"` // current; -1 when the deque was busy
	OpAgeNS    int64  `json:"op_age_ns,omitempty"`
	Op         string `json:"op,omitempty"` // operation currently in flight
}

// ParTelemetry is a point-in-time snapshot of the parallel engine's
// telemetry: merged wait histograms, per-worker accounting, contention
// top-K, and the STW breakdown. Values are advisory while operations are in
// flight (counters are read without stopping the engine).
type ParTelemetry struct {
	Workers    int `json:"workers"`
	SampleRate int `json:"sample_rate"` // 0 = fine-grained sampling off

	UniqueWait   WaitStats `json:"unique_wait"`
	CacheWait    WaitStats `json:"cache_wait"`
	LeaseWait    WaitStats `json:"lease_wait"`
	StealLatency WaitStats `json:"steal_latency"`
	JoinWait     WaitStats `json:"join_wait"`
	DequeDepth   WaitStats `json:"deque_depth"`

	WorkerStats     []WorkerStat `json:"worker_stats,omitempty"`
	HotLevels       []HeatEntry  `json:"hot_levels,omitempty"`
	HotCacheStripes []HeatEntry  `json:"hot_cache_stripes,omitempty"`
	STW             []STWStat    `json:"stw,omitempty"`

	TasksLocal  int64 `json:"tasks_local"`
	TasksStolen int64 `json:"tasks_stolen"`
}

// heatTopK extracts the K hottest cells by sampled hits.
func heatTopK(cells []heatCell, k int) []HeatEntry {
	var out []HeatEntry
	for i := range cells {
		h := cells[i].hits.Load()
		if h == 0 {
			continue
		}
		out = append(out, HeatEntry{Index: i, Hits: h, WaitNS: cells[i].waitNS.Load()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Index < out[j].Index
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// heatTopK is bounded by this many entries per table.
const heatK = 8

// ParTelemetry snapshots the engine's telemetry without stopping it. On a
// serial manager it returns a zero snapshot with Workers = 1.
func (m *Manager) ParTelemetry() ParTelemetry {
	t := ParTelemetry{Workers: 1, SampleRate: ParSampling()}
	e := m.par
	if e == nil {
		return t
	}
	t.Workers = e.workers
	t.TasksLocal = e.tasksLocal.Load()
	t.TasksStolen = e.tasksStolen.Load()

	var unique, cache, lease, steal, join, deque [waitHistBuckets]int64
	now := time.Now().UnixNano()
	for _, w := range e.all.Load().([]*parWorker) {
		w.telem.uniqueWait.addTo(&unique, &t.UniqueWait)
		w.telem.cacheWait.addTo(&cache, &t.CacheWait)
		w.telem.leaseWait.addTo(&lease, &t.LeaseWait)
		w.telem.stealWait.addTo(&steal, &t.StealLatency)
		w.telem.joinWait.addTo(&join, &t.JoinWait)
		w.telem.dequeLen.addTo(&deque, &t.DequeDepth)
		ws := WorkerStat{
			Ops:        w.telem.ops.Load(),
			Tasks:      w.telem.tasks.Load(),
			BusyNS:     w.telem.busyNS.Load(),
			IdleNS:     w.telem.idleNS.Load(),
			DequeDepth: w.deque.depth(),
		}
		if start := w.opStart.Load(); start != 0 {
			ws.OpAgeNS = now - start
			ws.Op = opCodeName(w.opCode.Load())
		}
		t.WorkerStats = append(t.WorkerStats, ws)
	}
	fill := func(ws *WaitStats, buckets *[waitHistBuckets]int64) {
		ws.P50NS = histQuantile(buckets, ws.Count, ws.MaxNS, 0.50)
		ws.P95NS = histQuantile(buckets, ws.Count, ws.MaxNS, 0.95)
		ws.P99NS = histQuantile(buckets, ws.Count, ws.MaxNS, 0.99)
	}
	fill(&t.UniqueWait, &unique)
	fill(&t.CacheWait, &cache)
	fill(&t.LeaseWait, &lease)
	fill(&t.StealLatency, &steal)
	fill(&t.JoinWait, &join)
	fill(&t.DequeDepth, &deque)

	if heat := e.levelHeat.Load(); heat != nil {
		t.HotLevels = heatTopK(*heat, heatK)
	}
	t.HotCacheStripes = heatTopK(e.stripeHeat[:], heatK)
	for i := range e.stw {
		c := &e.stw[i]
		if n := c.count.Load(); n > 0 {
			t.STW = append(t.STW, STWStat{
				Cause:   stwCause(i).String(),
				Count:   n,
				WaitNS:  c.waitNS.Load(),
				PauseNS: c.pauseNS.Load(),
			})
		}
	}
	return t
}

// depth returns the deque length, or -1 when its mutex is held (the
// watchdog and telemetry snapshots must never block on engine locks).
func (d *taskDeque) depth() int {
	if !d.mu.TryLock() {
		return -1
	}
	n := len(d.tasks)
	d.mu.Unlock()
	return n
}

// Operation codes for the watchdog's "op in flight" attribution -----------

const (
	opcNone int32 = iota
	opcAnd
	opcXor
	opcITE
	opcExists
	opcAndExists
	opcLeq
	opcCompose
	opcPermute
	opcCube
	opcStolen
)

var opCodeNames = [...]string{
	"none", "and", "xor", "ite", "exists", "and_exists",
	"leq", "compose", "permute", "cube", "stolen_task",
}

func opCodeName(c int32) string {
	if c < 0 || int(c) >= len(opCodeNames) {
		return "unknown"
	}
	return opCodeNames[c]
}

// Quiesce runs fn with the manager fully quiescent: the write lease held,
// no operation in flight, counters folded to their serial form. Exported
// for callers that need a stable cross-operation view (and for tests that
// hold the lease artificially to exercise the stall watchdog). On a serial
// manager fn just runs.
func (m *Manager) Quiesce(fn func()) { m.exclusiveCause(stwExclusive, fn) }

// Stall watchdog ----------------------------------------------------------

// StartStallWatchdog spawns a goroutine that checks every deadline/4
// whether the parallel engine looks stuck — a stop-the-world barrier
// draining for longer than deadline, the write lease held longer than
// deadline, or operations in flight with no task progress for longer than
// deadline — and reports a parallel-state dump to the manager's Observer
// (once per stall episode; the latch re-arms when the condition
// clears). The watchdog never blocks on engine locks. It returns a stop
// function (idempotent); on a serial manager or with deadline <= 0 the stop
// function is a no-op and no goroutine starts.
func (m *Manager) StartStallWatchdog(deadline time.Duration) (stop func()) {
	e := m.par
	if e == nil || deadline <= 0 {
		return func() {}
	}
	interval := deadline / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		fired := false
		lastProgress := e.progressCounter()
		lastChange := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			now := time.Now()
			if cur := e.progressCounter(); cur != lastProgress {
				lastProgress = cur
				lastChange = now
			}
			desc, stuck := e.stallCondition(now, deadline, lastChange)
			if desc == "" {
				fired = false
				continue
			}
			if fired {
				continue
			}
			fired = true
			if m.observer != nil {
				m.observer.Stall(m.parStallReport(desc, stuck), stuck)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// progressCounter is a cheap monotone counter that moves whenever the deque
// system makes progress.
func (e *parEngine) progressCounter() int64 {
	return e.tasksLocal.Load() + e.tasksStolen.Load() + e.opsDone.Load()
}

// stallCondition checks the three stall classes; it returns a description
// (empty = healthy) and how long the engine has been stuck.
func (e *parEngine) stallCondition(now time.Time, deadline time.Duration, lastChange time.Time) (string, time.Duration) {
	nowNS := now.UnixNano()
	if since := e.stwPendingSince.Load(); since != 0 {
		if age := time.Duration(nowNS - since); age > deadline {
			return fmt.Sprintf("stop-the-world barrier (cause %s) draining for %v",
				stwCause(e.stwPendingCause.Load()), age.Round(time.Millisecond)), age
		}
	}
	if since := e.leaseHeldSince.Load(); since != 0 {
		if age := time.Duration(nowNS - since); age > deadline {
			return fmt.Sprintf("write lease (cause %s) held for %v",
				stwCause(e.leaseCause.Load()), age.Round(time.Millisecond)), age
		}
	}
	// Deque system: an operation in flight past the deadline while no task
	// or operation completed anywhere in the same window.
	if idle := now.Sub(lastChange); idle > deadline {
		var oldest int64
		for _, w := range e.all.Load().([]*parWorker) {
			if s := w.opStart.Load(); s != 0 && (oldest == 0 || s < oldest) {
				oldest = s
			}
		}
		if oldest != 0 {
			if age := time.Duration(nowNS - oldest); age > deadline {
				return fmt.Sprintf("deque system stuck: oldest op in flight %v, no task progress for %v",
					age.Round(time.Millisecond), idle.Round(time.Millisecond)), age
			}
		}
	}
	return "", 0
}

// parStallReport renders the parallel state dump for a stall: lease holder
// by cause, per-worker in-flight ops and deque depths, steal counters, and
// the contention top-K. Lock-free except deque TryLocks.
func (m *Manager) parStallReport(desc string, stuck time.Duration) string {
	e := m.par
	var b strings.Builder
	fmt.Fprintf(&b, "bddkit parallel stall: %s\n", desc)
	fmt.Fprintf(&b, "workers=%d sample_rate=%d stuck=%v\n", e.workers, ParSampling(), stuck.Round(time.Millisecond))
	nowNS := time.Now().UnixNano()
	if since := e.stwPendingSince.Load(); since != 0 {
		fmt.Fprintf(&b, "stw pending: cause=%s for %v\n",
			stwCause(e.stwPendingCause.Load()), time.Duration(nowNS-since).Round(time.Millisecond))
	} else {
		fmt.Fprintf(&b, "stw pending: none\n")
	}
	if since := e.leaseHeldSince.Load(); since != 0 {
		fmt.Fprintf(&b, "write lease: cause=%s held %v\n",
			stwCause(e.leaseCause.Load()), time.Duration(nowNS-since).Round(time.Millisecond))
	} else {
		fmt.Fprintf(&b, "write lease: free\n")
	}
	all := e.all.Load().([]*parWorker)
	fmt.Fprintf(&b, "workers (%d pooled):\n", len(all))
	for i, w := range all {
		depth := w.deque.depth()
		if start := w.opStart.Load(); start != 0 {
			fmt.Fprintf(&b, "  [%d] op=%s in flight %v deque=%d ops=%d tasks=%d\n",
				i, opCodeName(w.opCode.Load()),
				time.Duration(nowNS-start).Round(time.Millisecond),
				depth, w.telem.ops.Load(), w.telem.tasks.Load())
		} else {
			fmt.Fprintf(&b, "  [%d] idle deque=%d ops=%d tasks=%d\n",
				i, depth, w.telem.ops.Load(), w.telem.tasks.Load())
		}
	}
	fmt.Fprintf(&b, "tasks: local=%d stolen=%d thieves=%d\n",
		e.tasksLocal.Load(), e.tasksStolen.Load(), e.thieves.Load())
	if heat := e.levelHeat.Load(); heat != nil {
		if top := heatTopK(*heat, heatK); len(top) > 0 {
			fmt.Fprintf(&b, "hot levels:")
			for _, h := range top {
				fmt.Fprintf(&b, " L%d(hits=%d wait=%v)", h.Index, h.Hits, time.Duration(h.WaitNS).Round(time.Microsecond))
			}
			fmt.Fprintln(&b)
		}
	}
	if top := heatTopK(e.stripeHeat[:], heatK); len(top) > 0 {
		fmt.Fprintf(&b, "hot cache stripes:")
		for _, h := range top {
			fmt.Fprintf(&b, " S%d(hits=%d wait=%v)", h.Index, h.Hits, time.Duration(h.WaitNS).Round(time.Microsecond))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
