package bdd

import "sort"

// Support computation.

// SupportVars returns the indices of the variables f depends on, in
// increasing index order.
func (m *Manager) SupportVars(f Ref) []int {
	return m.VectorSupport([]Ref{f})
}

// supportLevels marks, in inSupp (indexed by level), the level of every
// node below f that mk has not marked yet, marking those nodes.
func (m *Manager) supportLevels(f Ref, mk *Marks, inSupp []bool) {
	if !mk.Mark(f) {
		return
	}
	n := &m.nodes[f.index()]
	if n.level == terminalLevel {
		return
	}
	inSupp[n.level] = true
	m.supportLevels(n.hi, mk, inSupp)
	m.supportLevels(n.lo, mk, inSupp)
}

// SupportSize returns the number of variables f depends on.
func (m *Manager) SupportSize(f Ref) int {
	return len(m.SupportVars(f))
}

// SupportCube returns the positive cube of f's support variables.
func (m *Manager) SupportCube(f Ref) Ref {
	return m.CubeFromVars(m.SupportVars(f))
}

// VectorSupport returns the union of the supports of the given functions,
// in increasing index order.
func (m *Manager) VectorSupport(fs []Ref) []int {
	vars := []int{}
	m.readLocked(func() {
		mk := m.newMarks(len(m.nodes))
		inSupp := make([]bool, len(m.levToVar))
		for _, f := range fs {
			m.supportLevels(f, mk, inSupp)
		}
		mk.Release()
		for lev, in := range inSupp {
			if in {
				vars = append(vars, int(m.levToVar[lev]))
			}
		}
	})
	sort.Ints(vars)
	return vars
}
