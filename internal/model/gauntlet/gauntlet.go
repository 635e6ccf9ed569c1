// Package gauntlet generates the classic combinatorial BDD benchmark
// families (after the bdd-benchmark suite; SNIPPETS.md §3): N-Queens
// boards, Game of Life predecessor/garden-of-eden instances, Hamiltonian
// cycles on grid and knight's-move graphs, and Picotrav-style netlist
// equivalence miters. Each family yields diagram topologies genuinely
// different from the repo's sequential circuit models — and each has an
// independently computable exact answer (solution counts), which turns
// the whole gauntlet into a self-verifying fixture for internal/count
// and internal/oracle.
package gauntlet

import (
	"fmt"
	"strings"

	"bddkit/internal/bdd"
)

// Family names accepted in Params.Family.
const (
	FamilyQueens         = "queens"
	FamilyLife           = "life"
	FamilyHamiltonGrid   = "hamilton-grid"
	FamilyHamiltonKnight = "hamilton-knight"
	FamilyEquivAdder     = "equiv-adder"
)

// Families lists every generator family, in a stable order.
func Families() []string {
	return []string{FamilyQueens, FamilyLife, FamilyHamiltonGrid, FamilyHamiltonKnight, FamilyEquivAdder}
}

// Params selects and sizes one gauntlet instance.
type Params struct {
	Family string

	// N is the board size for queens and the operand width for
	// equiv-adder.
	N int

	// Rows and Cols size the life board and the hamilton-* graphs.
	Rows, Cols int

	// Target is the life pattern the predecessors must step to, row-major
	// Rows*Cols cells; nil selects DefaultLifeTarget.
	Target []bool

	// Fault injects a carry stuck-at-0 fault into the second adder of the
	// equiv-adder miter, making the pair inequivalent.
	Fault bool
}

// Name returns a stable instance label, e.g. "queens6" or "life3x3".
func (p Params) Name() string {
	switch p.Family {
	case FamilyQueens:
		return fmt.Sprintf("queens%d", p.N)
	case FamilyLife:
		return fmt.Sprintf("life%dx%d", p.Rows, p.Cols)
	case FamilyHamiltonGrid, FamilyHamiltonKnight:
		return fmt.Sprintf("%s%dx%d", p.Family, p.Rows, p.Cols)
	case FamilyEquivAdder:
		s := fmt.Sprintf("equiv-adder%d", p.N)
		if p.Fault {
			s += "f"
		}
		return s
	default:
		return "invalid"
	}
}

// Limits rejecting pathological instances: the BDD constructions below
// are polynomial per constraint but the diagrams themselves grow fast,
// and the fuzz target (oracle.FuzzGauntletParams) leans on Validate to
// refuse boards that would eat the machine.
const (
	maxQueens        = 10 // 100 variables, 724 solutions
	maxLifeCells     = 36 // 6x6 board
	maxHamiltonVerts = 12 // 144 time-slot variables
	maxAdderWidth    = 64 // 128 input variables
)

// Validate rejects unknown families and pathological sizes with a
// descriptive error; Build and Vars require a validated Params.
func (p Params) Validate() error {
	switch p.Family {
	case FamilyQueens:
		if p.N < 1 || p.N > maxQueens {
			return fmt.Errorf("gauntlet: queens board size %d outside [1,%d]", p.N, maxQueens)
		}
	case FamilyLife:
		if p.Rows < 1 || p.Cols < 1 {
			return fmt.Errorf("gauntlet: life board %dx%d has no cells", p.Rows, p.Cols)
		}
		// Per-dimension caps first, so the product below cannot overflow.
		if p.Rows > maxLifeCells || p.Cols > maxLifeCells || p.Rows*p.Cols > maxLifeCells {
			return fmt.Errorf("gauntlet: life board %dx%d exceeds %d cells", p.Rows, p.Cols, maxLifeCells)
		}
		if p.Target != nil && len(p.Target) != p.Rows*p.Cols {
			return fmt.Errorf("gauntlet: life target has %d cells, want %d", len(p.Target), p.Rows*p.Cols)
		}
	case FamilyHamiltonGrid, FamilyHamiltonKnight:
		if p.Rows < 1 || p.Cols < 1 {
			return fmt.Errorf("gauntlet: hamilton board %dx%d has no vertices", p.Rows, p.Cols)
		}
		if p.Rows > maxHamiltonVerts || p.Cols > maxHamiltonVerts {
			return fmt.Errorf("gauntlet: hamilton board %dx%d exceeds %d vertices", p.Rows, p.Cols, maxHamiltonVerts)
		}
		if v := p.Rows * p.Cols; v < 2 || v > maxHamiltonVerts {
			return fmt.Errorf("gauntlet: hamilton board %dx%d has %d vertices, want [2,%d]", p.Rows, p.Cols, v, maxHamiltonVerts)
		}
	case FamilyEquivAdder:
		if p.N < 1 || p.N > maxAdderWidth {
			return fmt.Errorf("gauntlet: adder width %d outside [1,%d]", p.N, maxAdderWidth)
		}
	default:
		return fmt.Errorf("gauntlet: unknown family %q (have %s)", p.Family, strings.Join(Families(), ", "))
	}
	return nil
}

// Vars returns the number of BDD variables the instance's characteristic
// function ranges over.
func (p Params) Vars() int {
	switch p.Family {
	case FamilyQueens:
		return p.N * p.N
	case FamilyLife:
		return p.Rows * p.Cols
	case FamilyHamiltonGrid, FamilyHamiltonKnight:
		v := p.Rows * p.Cols
		return v * v
	case FamilyEquivAdder:
		return 2 * p.N
	default:
		return 0
	}
}

// Build constructs the instance's characteristic function on m, which
// must already have at least p.Vars() variables. The caller owns the
// returned reference. Satisfying assignments are, per family: queen
// placements, life predecessor boards, directed Hamiltonian cycles
// anchored at vertex 0, and adder-miter distinguishing input pairs.
func Build(m *bdd.Manager, p Params) (bdd.Ref, error) {
	if err := p.Validate(); err != nil {
		return bdd.Zero, err
	}
	if m.NumVars() < p.Vars() {
		return bdd.Zero, fmt.Errorf("gauntlet: manager has %d variables, instance needs %d", m.NumVars(), p.Vars())
	}
	switch p.Family {
	case FamilyQueens:
		return queens(m, p.N), nil
	case FamilyLife:
		target := p.Target
		if target == nil {
			target = DefaultLifeTarget(p.Rows, p.Cols)
		}
		return lifePredecessor(m, p.Rows, p.Cols, target), nil
	case FamilyHamiltonGrid:
		return hamiltonian(m, GridGraph(p.Rows, p.Cols)), nil
	case FamilyHamiltonKnight:
		return hamiltonian(m, KnightGraph(p.Rows, p.Cols)), nil
	case FamilyEquivAdder:
		return adderMiter(m, p.N, p.Fault)
	}
	return bdd.Zero, fmt.Errorf("gauntlet: unknown family %q", p.Family)
}

// New builds the instance on a fresh manager sized to fit, built with
// observer o (nil = unobserved) so that the build's garbage collections
// and reorderings reach it.
func New(p Params, o bdd.Observer) (*bdd.Manager, bdd.Ref, error) {
	if err := p.Validate(); err != nil {
		return nil, bdd.Zero, err
	}
	m := bdd.NewWithConfig(p.Vars(), bdd.Config{Observer: o})
	f, err := Build(m, p)
	if err != nil {
		return nil, bdd.Zero, err
	}
	return m, f, nil
}

// SmallInstances is the smoke set `make gauntlet-smoke` and the bench
// per-family report run: one cheap instance of every family, each with a
// closed-form or explicit-enumeration oracle in range.
func SmallInstances() []Params {
	return []Params{
		{Family: FamilyQueens, N: 6},
		{Family: FamilyLife, Rows: 3, Cols: 3},
		{Family: FamilyHamiltonGrid, Rows: 2, Cols: 3},
		{Family: FamilyHamiltonKnight, Rows: 3, Cols: 3},
		{Family: FamilyEquivAdder, N: 8},
		{Family: FamilyEquivAdder, N: 8, Fault: true},
	}
}

// conj returns f AND g, consuming both owned references.
func conj(m *bdd.Manager, f, g bdd.Ref) bdd.Ref {
	h := m.And(f, g)
	m.Deref(f)
	m.Deref(g)
	return h
}

// exactlyOne builds "exactly one of vars is 1" (vars are projection
// functions, not owned). The caller owns the result.
func exactlyOne(m *bdd.Manager, vars []bdd.Ref) bdd.Ref {
	none := m.Ref(bdd.One)
	one := m.Ref(bdd.Zero)
	for _, x := range vars {
		// new one = x·none + ¬x·one ; new none = ¬x·none
		n1 := m.ITE(x, none, one)
		n0 := m.ITE(x, bdd.Zero, none)
		m.Deref(one)
		m.Deref(none)
		one, none = n1, n0
	}
	m.Deref(none)
	return one
}

// exactCounts builds, over the given variables, the family of symmetric
// functions "exactly k variables are 1" for k < cap, plus "at least cap"
// in the final slot (so the exact-k entries are not polluted by
// overflow). The caller owns every returned reference.
func exactCounts(m *bdd.Manager, vars []bdd.Ref, capK int) []bdd.Ref {
	cnt := make([]bdd.Ref, capK+1)
	cnt[0] = m.Ref(bdd.One)
	for k := 1; k <= capK; k++ {
		cnt[k] = m.Ref(bdd.Zero)
	}
	for _, x := range vars {
		// Overflow slot absorbs both "was already ≥cap" and "reaches cap".
		nOver := m.ITE(x, cnt[capK-1], cnt[capK])
		nOver2 := m.Or(nOver, cnt[capK])
		m.Deref(nOver)
		for k := capK - 1; k >= 1; k-- {
			nk := m.ITE(x, cnt[k-1], cnt[k])
			m.Deref(cnt[k])
			cnt[k] = nk
		}
		n0 := m.ITE(x, bdd.Zero, cnt[0])
		m.Deref(cnt[0])
		cnt[0] = n0
		m.Deref(cnt[capK])
		cnt[capK] = nOver2
	}
	return cnt
}
