package bdd

// Evaluation and satisfying-assignment extraction.

// Eval returns the value of f under the given assignment, indexed by
// variable (assignment[v] is the value of variable v). Variables beyond
// len(assignment) are treated as false.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	var res bool
	m.readLocked(func() {
		neg := f.IsComplement()
		idx := f.index()
		for {
			n := &m.nodes[idx]
			if n.level == terminalLevel {
				res = !neg
				return
			}
			v := int(m.levToVar[n.level])
			var child Ref
			if v < len(assignment) && assignment[v] {
				child = n.hi
			} else {
				child = n.lo
			}
			if child.IsComplement() {
				neg = !neg
			}
			idx = child.index()
		}
	})
	return res
}

// Literal polarity markers used in cube slices.
const (
	LitNeg      int8 = 0 // variable appears complemented
	LitPos      int8 = 1 // variable appears positive
	LitDontCare int8 = 2 // variable absent from the cube
)

// PickOneCube returns one satisfying cube of f as a slice indexed by
// variable (values LitNeg, LitPos, LitDontCare), or nil if f is Zero.
func (m *Manager) PickOneCube(f Ref) []int8 {
	if f == Zero {
		return nil
	}
	cube := make([]int8, m.NumVars())
	for i := range cube {
		cube[i] = LitDontCare
	}
	m.readLocked(func() {
		for !f.IsConstant() {
			v := m.Var(f)
			hi, lo := m.Hi(f), m.Lo(f)
			if hi != Zero {
				cube[v] = LitPos
				f = hi
			} else {
				cube[v] = LitNeg
				f = lo
			}
		}
	})
	return cube
}

// PickOneMinterm returns a full satisfying assignment of f over nVars
// variables (don't-care positions resolved to false), or nil if f is Zero.
func (m *Manager) PickOneMinterm(f Ref, nVars int) []bool {
	cube := m.PickOneCube(f)
	if cube == nil {
		return nil
	}
	a := make([]bool, nVars)
	for v := 0; v < nVars && v < len(cube); v++ {
		a[v] = cube[v] == LitPos
	}
	return a
}

// ForEachCube calls fn for every cube (prime-free path enumeration: one
// cube per BDD path to One). The slice passed to fn is reused between
// calls; copy it to retain. Iteration stops early if fn returns false.
//
// On a parallel manager the walk is not synchronized against concurrent
// operations (the callback may itself call back into the manager, so no
// lease can be held across it); do not run it while other goroutines
// mutate the same manager.
func (m *Manager) ForEachCube(f Ref, fn func(cube []int8) bool) {
	cube := make([]int8, m.NumVars())
	for i := range cube {
		cube[i] = LitDontCare
	}
	m.cubeRec(f, cube, fn)
}

func (m *Manager) cubeRec(f Ref, cube []int8, fn func([]int8) bool) bool {
	if f == Zero {
		return true
	}
	if f == One {
		return fn(cube)
	}
	v := m.Var(f)
	cube[v] = LitPos
	if !m.cubeRec(m.Hi(f), cube, fn) {
		cube[v] = LitDontCare
		return false
	}
	cube[v] = LitNeg
	if !m.cubeRec(m.Lo(f), cube, fn) {
		cube[v] = LitDontCare
		return false
	}
	cube[v] = LitDontCare
	return true
}

// CubeToRef converts a cube slice (as produced by PickOneCube) back to the
// BDD of the corresponding conjunction of literals.
func (m *Manager) CubeToRef(cube []int8) Ref {
	var out Ref
	m.exclusive(func() {
		r := One
		for v := len(cube) - 1; v >= 0; v-- {
			if v >= m.NumVars() || cube[v] == LitDontCare {
				continue
			}
			lit := m.vars[v]
			if cube[v] == LitNeg {
				lit = lit.Complement()
			}
			nr := m.andRec(nil, r, lit, 1)
			m.derefS(r)
			r = nr
		}
		out = r
	})
	return out
}
