package bdd

// Sensitivity operators used by verification front ends.

// BooleanDiff returns the boolean difference ∂f/∂v = f|v=1 ⊕ f|v=0: the set
// of assignments to the other variables on which f is sensitive to v.
func (m *Manager) BooleanDiff(f Ref, v int) Ref {
	f1 := m.CofactorVar(f, v, true)
	f0 := m.CofactorVar(f, v, false)
	r := m.Xor(f1, f0)
	m.Deref(f1)
	m.Deref(f0)
	return r
}

// Smoothing is existential quantification of one variable (the smoothing
// operator of the unate-recursive paradigm): S_v f = f|v=1 + f|v=0.
func (m *Manager) Smoothing(f Ref, v int) Ref {
	return m.Exists(f, []int{v})
}

// Consensus is universal quantification of one variable: C_v f = f|v=1 ·
// f|v=0.
func (m *Manager) Consensus(f Ref, v int) Ref {
	return m.ForAll(f, []int{v})
}

// Intersect reports whether f and g share at least one minterm, without
// building f AND g (it stops at the first witness).
func (m *Manager) Intersect(f, g Ref) bool {
	return m.intersectRec(f, g, make(map[[2]Ref]bool))
}

func (m *Manager) intersectRec(f, g Ref, seen map[[2]Ref]bool) bool {
	if f == Zero || g == Zero || f == g.Complement() {
		return false
	}
	if f == One || g == One || f == g {
		return true
	}
	if f > g {
		f, g = g, f
	}
	key := [2]Ref{f, g}
	if seen[key] {
		return false // already explored and found empty
	}
	seen[key] = true
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	return m.intersectRec(f1, g1, seen) || m.intersectRec(f0, g0, seen)
}
