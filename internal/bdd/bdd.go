// Package bdd implements Reduced Ordered Binary Decision Diagrams (ROBDDs)
// with complement arcs, in the style of the CUDD package that the DAC'98
// paper "Approximation and Decomposition of Binary Decision Diagrams"
// (Ravi, McMillan, Shiple, Somenzi) builds on.
//
// The package provides:
//
//   - A Manager holding a node arena, per-level unique subtables, a computed
//     (operation) cache, reference counting with deferred garbage
//     collection, and dynamic variable reordering by sifting.
//   - The classic operations: ITE, AND/OR/XOR and friends, existential and
//     universal quantification, the relational product (AndExists),
//     generalized cofactors (Constrain, Restrict), composition, variable
//     permutation, minterm and path counting, satisfying-assignment
//     extraction, and structural introspection used by the approximation
//     and decomposition algorithms built on top.
//
// Functions are identified by Ref handles. A Ref packs a node index and a
// complement bit; negation is therefore O(1) and the diagram for f and ¬f is
// shared. The canonical form follows CUDD: the "then" (high) edge of a node
// is never complemented, complementation appears only on "else" edges and on
// external references.
//
// Reference counting follows the CUDD discipline: operations return a Ref
// whose reference count has already been incremented on behalf of the
// caller, and the caller releases it with Manager.Deref when done. Nodes
// whose count drops to zero become dead but remain valid (and resurrectable)
// until the manager decides to garbage collect, which only happens inside
// allocation or when explicitly requested.
package bdd

import (
	"fmt"
	"math"
	"time"
)

// Ref is a handle to a BDD function: a node index shifted left by one, with
// the complement flag in bit 0. The zero value is the constant function One.
type Ref uint32

// Terminal and sentinel references.
const (
	// One is the constant true function (the single terminal node).
	One Ref = 0
	// Zero is the constant false function (the complement of One).
	Zero Ref = 1
	// invalidRef marks "no value" slots in caches.
	invalidRef Ref = math.MaxUint32
)

const (
	// terminalLevel orders the constant node below every variable.
	terminalLevel = int32(math.MaxInt32)
	// refSaturated is the reference count at which a node becomes
	// permanent: saturated counts are never decremented again.
	refSaturated = math.MaxInt32
	// nilIndex terminates unique-table hash chains and the free list.
	nilIndex = int32(-1)
)

// node is one vertex of the shared DAG. The then edge (hi) is never
// complemented; the else edge (lo) may be. next chains nodes within a
// unique-subtable bucket and doubles as the free-list link for dead nodes
// that have been reclaimed.
type node struct {
	level int32 // position of the node's variable in the current order
	hi    Ref   // then child (regular, never complemented)
	lo    Ref   // else child (possibly complemented)
	next  int32 // unique-table chain / free-list link
	ref   int32 // reference count (0 = dead but resurrectable)
}

// Complement returns the negation of f. With complement arcs this is free.
func (f Ref) Complement() Ref { return f ^ 1 }

// IsComplement reports whether f is a complemented reference.
func (f Ref) IsComplement() bool { return f&1 != 0 }

// Regular returns f with the complement bit cleared.
func (f Ref) Regular() Ref { return f &^ 1 }

// index returns the arena index of the node f points to.
func (f Ref) index() int32 { return int32(f >> 1) }

// IsConstant reports whether f is One or Zero.
func (f Ref) IsConstant() bool { return f.Regular() == One }

// ID returns a stable identifier for the node f points to, shared by f and
// its complement. Client algorithms use it to key per-node side tables.
// IDs remain stable across reordering but may be recycled after a node is
// garbage collected, so side tables must not outlive the functions they
// describe.
func (f Ref) ID() uint32 { return uint32(f.index()) }

// makeRef assembles a Ref from an arena index and a complement flag.
func makeRef(idx int32, complement bool) Ref {
	r := Ref(idx) << 1
	if complement {
		r |= 1
	}
	return r
}

// Config collects the tunables of a Manager. The zero value selects
// reasonable defaults via DefaultConfig.
type Config struct {
	// InitialNodes sizes the node arena at startup.
	InitialNodes int
	// CacheBits sets the initial computed-table size to 1<<CacheBits
	// entries.
	CacheBits uint
	// CacheMaxBits caps the computed table's adaptive growth at
	// 1<<CacheMaxBits entries; the table doubles when a resize epoch
	// sustains a high hit rate under heavy insert traffic. Zero selects
	// the default ceiling; a nonzero value at or below CacheBits pins the
	// cache at its initial size.
	CacheMaxBits uint
	// GCFraction triggers garbage collection when dead nodes exceed this
	// fraction of the arena (checked on allocation pressure).
	GCFraction float64
	// MaxGrowth bounds how much the arena may grow between reorderings
	// when automatic reordering is enabled.
	MaxGrowth float64
	// Workers sets how many OS threads operations may use. Both engines
	// run the same kernel recursions over a worker context: 1 runs them
	// with no worker (plain reference counts, no locks, no forks); larger
	// values enable the lock-striped parallel engine and work-stealing
	// kernels. Neither engine is the other's reference: both are checked
	// against the truth-table oracle and the gauntlet's closed-form counts.
	// Zero selects the package default (see SetDefaultWorkers), which
	// starts at 1; set it to runtime.GOMAXPROCS(0) to use every core.
	Workers int
	// Observer receives the manager's GC, reorder, abort, invariant and
	// parallel-engine events for its whole lifetime (nil = none).
	Observer Observer
}

// DefaultConfig returns the default Manager configuration.
func DefaultConfig() Config {
	return Config{
		InitialNodes: 1 << 14,
		CacheBits:    18,
		CacheMaxBits: 22,
		GCFraction:   0.25,
		MaxGrowth:    2.0,
	}
}

// Manager owns the node arena, the unique subtables (one per variable
// level), the computed cache, and the variable order. All operations on Refs
// are methods of the Manager that created them; Refs from different
// managers must never be mixed.
type Manager struct {
	nodes     []node
	nodesUsed int64 // arena cursor: slots [0, nodesUsed) have been handed out
	free      int32 // head of the free list (chained via node.next)

	par *parEngine // nil on serial managers (Workers <= 1)

	subtables []subtable // one per level, index = level
	varToLev  []int32    // variable index -> level
	levToVar  []int32    // level -> variable index
	vars      []Ref      // variable index -> projection function (saturated)

	cache  computedCache
	userOp uint32

	deadCount  int
	liveCount  int
	gcFraction float64
	noGC       bool // blocks GC inside allocation (set during reordering)

	autoReorder      bool
	reorderThreshold int
	maxGrowth        float64

	deadline  time.Time // operation deadline (zero = none)
	allocTick int       // allocations since the last deadline check
	nodeLimit int       // live-node ceiling (0 = none)

	observer Observer // Config.Observer, fixed at construction

	stats Stats
}

// subtable is the unique table for one variable level: open hashing with
// chains threaded through the node arena.
type subtable struct {
	buckets []int32
	mask    uint32
	count   int // nodes (live or dead) currently stored at this level
}

// Stats accumulates operation counters for reporting and benchmarking.
type Stats struct {
	UniqueLookups    int64 // makeNode calls
	UniqueHits       int64 // makeNode found an existing node
	UniqueGrows      int64 // unique-subtable doublings (load or chain driven)
	CacheLookups     int64 // computed-table probes
	CacheHits        int64 // computed-table hits
	CacheInserts     int64 // computed-table insertions
	CacheEvictions   int64 // live entries displaced by in-set aging
	CacheResizes     int64 // adaptive computed-table doublings
	CacheSweeps      int64 // selective invalidation passes (one per GC)
	CacheSurvived    int64 // entries preserved across selective sweeps
	CacheDropped     int64 // entries dropped by selective sweeps
	CacheGenerations int64 // O(1) wholesale invalidations (reordering)
	GCs              int64 // garbage collections
	GCNodes          int64 // nodes reclaimed by GC
	Reorderings      int64 // sifting passes
	Resurrected      int64 // dead nodes brought back by a unique-table hit

	GCTime       time.Duration // total wall time spent in garbage collection
	ReorderTime  time.Duration // total wall time spent in reordering passes
	PeakLive     int           // high-water mark of live nodes
	PeakITEDepth int           // deepest ITE recursion observed

	TasksStolen int64 // parallel subproblems executed by a different worker
	TasksLocal  int64 // forked subproblems reclaimed by their owner at join

	// Quiescence accounting on a parallel manager: write-lease /
	// stop-the-world epochs (GC, reorder, cache resize, load, ...) and the
	// total wall time the engine stayed excluded, summed over their pauses
	// (epochs never overlap, so it cannot exceed the wall time). This is
	// the serial fraction an Amdahl breakdown attributes speedup loss to.
	// Always zero on a serial manager. Per-cause pauses and drain waits
	// are in Manager.ParTelemetry.
	STWCount int64
	STWTime  time.Duration
}

// New creates a Manager with numVars variables (indexed 0..numVars-1, with
// the identity order) and the default configuration.
func New(numVars int) *Manager {
	return NewWithConfig(numVars, DefaultConfig())
}

// NewWithConfig creates a Manager with numVars variables and cfg tunables.
func NewWithConfig(numVars int, cfg Config) *Manager {
	def := DefaultConfig()
	if cfg.InitialNodes <= 0 {
		cfg.InitialNodes = def.InitialNodes
	}
	if cfg.CacheBits == 0 {
		cfg.CacheBits = def.CacheBits
	}
	if cfg.CacheMaxBits == 0 {
		cfg.CacheMaxBits = def.CacheMaxBits
	}
	if cfg.GCFraction <= 0 {
		cfg.GCFraction = def.GCFraction
	}
	if cfg.MaxGrowth <= 1 {
		cfg.MaxGrowth = def.MaxGrowth
	}
	m := &Manager{
		// The arena is cursor-based: full length from the start, with
		// nodesUsed marking the first virgin slot. A fixed len==cap slice
		// never reallocates outside growArena, which parallel mode runs
		// only at stop-the-world points.
		nodes:            make([]node, cfg.InitialNodes),
		nodesUsed:        1,
		free:             nilIndex,
		gcFraction:       cfg.GCFraction,
		maxGrowth:        cfg.MaxGrowth,
		reorderThreshold: 4096,
		observer:         cfg.Observer,
	}
	// Node 0 is the terminal. It is permanently referenced.
	m.nodes[0] = node{level: terminalLevel, hi: One, lo: One, next: nilIndex, ref: refSaturated}
	m.cache.init(cfg.CacheBits, cfg.CacheMaxBits)
	m.liveCount = 1
	for i := 0; i < numVars; i++ {
		m.addVarS()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > 1 {
		m.par = newParEngine(m, workers)
	}
	return m
}

// NumVars returns the number of variables known to the manager.
func (m *Manager) NumVars() int { return len(m.vars) }

// AddVar appends a new variable at the bottom of the current order and
// returns its projection function. The projection function is permanently
// referenced.
func (m *Manager) AddVar() Ref {
	var v Ref
	m.exclusive(func() { v = m.addVarLocked() })
	return v
}

// addVarLocked is AddVar on a quiescent manager; it also grows the parallel
// engine's per-level lock array in step with the subtables.
func (m *Manager) addVarLocked() Ref {
	v := m.addVarS()
	if m.par != nil {
		m.par.tableMu = append(m.par.tableMu, padMutex{})
		m.par.growLevelHeat(len(m.subtables))
	}
	return v
}

// addVarS is the serial AddVar body.
func (m *Manager) addVarS() Ref {
	idx := int32(len(m.vars))
	lev := int32(len(m.subtables))
	m.subtables = append(m.subtables, newSubtable())
	m.varToLev = append(m.varToLev, lev)
	m.levToVar = append(m.levToVar, idx)
	v := m.makeNode(lev, One, Zero)
	m.nodes[v.index()].ref = refSaturated
	m.vars = append(m.vars, v)
	return v
}

// IthVar returns the projection function of variable i (created by AddVar or
// at construction time).
func (m *Manager) IthVar(i int) Ref {
	if i < 0 || i >= len(m.vars) {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, len(m.vars)))
	}
	return m.vars[i]
}

// LevelOfVar returns the current level (order position) of variable i.
func (m *Manager) LevelOfVar(i int) int { return int(m.varToLev[i]) }

// VarAtLevel returns the variable index sitting at order position lev.
func (m *Manager) VarAtLevel(lev int) int { return int(m.levToVar[lev]) }

// Level returns the level of f's top node; constants return a level larger
// than that of any variable.
func (m *Manager) Level(f Ref) int { return int(m.nodes[f.index()].level) }

// Var returns the variable index labeling f's top node. It panics on
// constants.
func (m *Manager) Var(f Ref) int {
	lev := m.nodes[f.index()].level
	if lev == terminalLevel {
		panic("bdd: Var called on constant")
	}
	return int(m.levToVar[lev])
}

// Hi returns the then-cofactor of f with respect to its own top variable,
// as a function (f's complement bit is applied). Hi of a constant panics.
func (m *Manager) Hi(f Ref) Ref {
	n := &m.nodes[f.index()]
	if n.level == terminalLevel {
		panic("bdd: Hi called on constant")
	}
	return n.hi ^ (f & 1)
}

// Lo returns the else-cofactor of f with respect to its own top variable,
// as a function (f's complement bit is applied). Lo of a constant panics.
func (m *Manager) Lo(f Ref) Ref {
	n := &m.nodes[f.index()]
	if n.level == terminalLevel {
		panic("bdd: Lo called on constant")
	}
	return n.lo ^ (f & 1)
}

// StructHi returns the raw (structural) then edge of f's node, without
// applying f's complement bit. Together with StructLo it exposes the shared
// DAG to traversal algorithms (approximation, decomposition).
func (m *Manager) StructHi(f Ref) Ref { return m.nodes[f.index()].hi }

// StructLo returns the raw (structural) else edge of f's node, without
// applying f's complement bit.
func (m *Manager) StructLo(f Ref) Ref { return m.nodes[f.index()].lo }

// Ref increments the external reference count of f and returns f. Constants
// and projection functions are permanent and unaffected.
func (m *Manager) Ref(f Ref) Ref {
	if m.par != nil {
		return m.refPublic(f)
	}
	return m.refS(f)
}

// refS is the serial Ref body; internal serial code (and exclusive sections
// on a parallel manager) must use it instead of the public dispatcher.
func (m *Manager) refS(f Ref) Ref { return m.refW(nil, f) }

// refW adds one reference to f on behalf of worker w; a nil worker runs the
// serial body.
func (m *Manager) refW(w *parWorker, f Ref) Ref {
	if w != nil {
		m.refParIndex(f.index())
		return f
	}
	n := &m.nodes[f.index()]
	if n.ref == refSaturated {
		return f
	}
	if n.ref == 0 {
		// Resurrect a dead node the caller got from a cache or by
		// structural traversal.
		m.reclaim(f)
		return f
	}
	n.ref++
	return f
}

// Deref releases one reference to f. When the count reaches zero the node
// becomes dead: it remains structurally valid until the next garbage
// collection, and is resurrected if looked up again before that.
func (m *Manager) Deref(f Ref) {
	if m.par != nil {
		m.derefPublic(f)
		return
	}
	m.derefIndex(f.index())
}

// derefS is the serial Deref body, the counterpart of refS.
func (m *Manager) derefS(f Ref) {
	m.derefIndex(f.index())
}

func (m *Manager) derefIndex(idx int32) { m.derefIndexW(nil, idx) }

// derefIndexW drops one reference on behalf of worker w; a nil worker runs
// the serial body.
func (m *Manager) derefIndexW(w *parWorker, idx int32) {
	if w != nil {
		m.derefParIndex(idx)
		return
	}
	n := &m.nodes[idx]
	if n.ref == refSaturated {
		return
	}
	if n.ref <= 0 {
		panic("bdd: Deref of unreferenced node")
	}
	n.ref--
	if n.ref == 0 && n.level != terminalLevel {
		m.deadCount++
		m.liveCount--
		if m.par != nil {
			// Parallel managers defer death uniformly: the node keeps
			// the references it holds on its children until the next
			// reconcile (see reconcileDeaths), even when the deref
			// happens in a serial exclusive section.
			e := m.par
			e.deadMu.Lock()
			e.deadPending[idx] = struct{}{}
			e.deadMu.Unlock()
			return
		}
		// Recursively release the internal references this node holds
		// on its children.
		m.derefIndexW(nil, n.hi.index())
		m.derefIndexW(nil, n.lo.index())
	}
}

// reclaim resurrects a dead node (ref count zero): it restores the
// references the node holds on its children, recursively resurrecting them
// as needed. Callers ensure the node's count becomes 1 (one new owner).
// On a parallel manager dead nodes never dropped their child references,
// so resurrection is just the count flip.
func (m *Manager) reclaim(f Ref) {
	idx := f.index()
	n := &m.nodes[idx]
	if n.ref != 0 {
		if n.ref != refSaturated {
			n.ref++
		}
		return
	}
	n.ref = 1
	m.deadCount--
	m.liveCount++
	if m.liveCount > m.stats.PeakLive {
		m.stats.PeakLive = m.liveCount
	}
	m.stats.Resurrected++
	if m.par != nil {
		e := m.par
		e.deadMu.Lock()
		delete(e.deadPending, idx)
		e.deadMu.Unlock()
		return
	}
	m.reclaim(n.hi)
	m.reclaim(n.lo)
}

// NodeCount returns the number of live (externally or internally referenced)
// nodes, including the terminal. On a parallel manager the count is
// advisory while operations are in flight (it reads atomic mirrors) and
// exact at quiescence.
func (m *Manager) NodeCount() int {
	if m.par != nil {
		return int(m.par.liveApprox())
	}
	return m.liveCount
}

// DeadCount returns the number of dead nodes awaiting collection (advisory
// on a parallel manager, like NodeCount).
func (m *Manager) DeadCount() int {
	if m.par != nil {
		return int(m.par.deadBase.Load() + m.par.deadDelta.Load())
	}
	return m.deadCount
}

// Stats returns a snapshot of the manager's operation counters. On a
// parallel manager the snapshot excludes worker-local counters of
// operations still in flight (they merge at operation exit).
func (m *Manager) Stats() Stats {
	if m.par == nil {
		return m.stats
	}
	e := m.par
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	m.foldExtraCacheStats()
	s := m.stats
	s.TasksStolen = e.tasksStolen.Load()
	s.TasksLocal = e.tasksLocal.Load()
	s.STWCount, s.STWTime = e.stwTotals()
	if p := int(e.peakLive.Load()); p > s.PeakLive {
		s.PeakLive = p
	}
	return s
}

// checkArgs panics if any argument Ref is out of range; cheap insurance
// against cross-manager mixups in debug paths.
func (m *Manager) checkArgs(refs ...Ref) {
	for _, f := range refs {
		if int(f.index()) >= len(m.nodes) {
			panic(fmt.Sprintf("bdd: ref %d out of range", f))
		}
	}
}
