// Package bdd implements Reduced Ordered Binary Decision Diagrams (ROBDDs)
// with complement arcs, in the style of the CUDD package that the DAC'98
// paper "Approximation and Decomposition of Binary Decision Diagrams"
// (Ravi, McMillan, Shiple, Somenzi) builds on.
//
// The package provides:
//
//   - A Manager holding a node arena, per-variable unique subtables, a
//     computed (operation) cache, reference counting with deferred garbage
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
	// Workers is ignored: kept only for benchmark code compiled against
	// it. Every manager runs the same single-threaded engine.
	Workers int
	// Observer receives the manager's GC, reorder, abort and invariant
	// events for its whole lifetime (nil = none).
	Observer Observer
}

// DefaultConfig returns the default Manager configuration.
func DefaultConfig() Config {
	return Config{
		InitialNodes: 1 << 14,
		CacheBits:    18,
		CacheMaxBits: 22,
		GCFraction:   0.25,
	}
}

// Manager owns the node arena, the unique subtables (one per variable
// level), the computed cache, and the variable order. All operations on Refs
// are methods of the Manager that created them; Refs from different
// managers must never be mixed. A Manager is not safe for concurrent use:
// callers that share one between goroutines serialize its operations.
type Manager struct {
	nodes     []node
	nodesUsed int64 // arena cursor: slots [0, nodesUsed) have been handed out
	free      int32 // head of the free list (chained via node.next)

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
	swapBuf          []int32 // swapInPlace's rewrite list, reused so swaps do not allocate

	marksFree []*Marks // released visited sets (marks.go), reused by the next traversals

	scope     *runScope // innermost active Run (nil = unbounded)
	allocTick int       // allocations since the last context-flag poll
	nodeLimit int       // live-node ceiling in force (0 = none)

	observer Observer // Config.Observer, fixed at construction

	stats Stats
}

// subtable is the unique table of one variable: open hashing with chains
// threaded through the node arena. It sits at the index of the variable's
// level and moves with the variable when a swap changes that level.
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
	Resurrected      int64 // dead nodes brought back to life, each node of a revived cone counted

	GCTime       time.Duration // total wall time spent in garbage collection
	ReorderTime  time.Duration // total wall time spent in reordering passes
	PeakLive     int           // high-water mark of live nodes
	PeakITEDepth int           // deepest ITE recursion observed

	// Always 0: kept only for benchmark code compiled against them.
	TasksStolen int64
	TasksLocal  int64
	STWCount    int64
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
	m := &Manager{
		// The arena is cursor-based: full length from the start, with
		// nodesUsed marking the first virgin slot; only growArena
		// reallocates it.
		nodes:            make([]node, cfg.InitialNodes),
		nodesUsed:        1,
		free:             nilIndex,
		gcFraction:       cfg.GCFraction,
		reorderThreshold: 4096,
		observer:         cfg.Observer,
	}
	// Node 0 is the terminal. It is permanently referenced.
	m.nodes[0] = node{level: terminalLevel, hi: One, lo: One, next: nilIndex, ref: refSaturated}
	m.cache.init(cfg.CacheBits, cfg.CacheMaxBits)
	m.liveCount = 1
	for i := 0; i < numVars; i++ {
		m.AddVar()
	}
	return m
}

// NumVars returns the number of variables known to the manager.
func (m *Manager) NumVars() int { return len(m.vars) }

// AddVar appends a new variable at the bottom of the current order and
// returns its projection function. The projection function is permanently
// referenced.
func (m *Manager) AddVar() Ref {
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
func (m *Manager) Deref(f Ref) { m.derefIndex(f.index()) }

// derefIndex drops one reference to the node at idx.
func (m *Manager) derefIndex(idx int32) {
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
		// Recursively release the internal references this node holds
		// on its children.
		m.derefIndex(n.hi.index())
		m.derefIndex(n.lo.index())
	}
}

// reclaim resurrects a dead node (ref count zero): it restores the
// references the node holds on its children, recursively resurrecting them
// as needed. Callers ensure the node's count becomes 1 (one new owner).
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
	m.reclaim(n.hi)
	m.reclaim(n.lo)
}

// NodeCount returns the number of live (externally or internally referenced)
// nodes, including the terminal.
func (m *Manager) NodeCount() int { return m.liveCount }

// DeadCount returns the number of dead nodes awaiting collection.
func (m *Manager) DeadCount() int { return m.deadCount }

// Stats returns a snapshot of the manager's operation counters.
func (m *Manager) Stats() Stats { return m.stats }

// checkArgs panics if any argument Ref is out of range; cheap insurance
// against cross-manager mixups in debug paths.
func (m *Manager) checkArgs(refs ...Ref) {
	for _, f := range refs {
		if int(f.index()) >= len(m.nodes) {
			panic(fmt.Sprintf("bdd: ref %d out of range", f))
		}
	}
}
