package bdd

// Generalized cofactors and interval minimization.
//
// Constrain (Coudert–Madre, the operator written f↓c in the DAC'98 paper's
// reference [8]) and Restrict (reference [9]) both return a function that
// agrees with f wherever c holds, choosing values off the care set so that
// sharing increases; Figure 1 of the paper illustrates the remapping step
// they are built on.

// Constrain returns the generalized cofactor f ⇓ c (Coudert–Madre
// "constrain"). c must not be Zero. The result agrees with f on c.
func (m *Manager) Constrain(f, c Ref) Ref {
	if c == Zero {
		panic("bdd: Constrain with empty care set")
	}
	return m.constrainRec(f, c)
}

func (m *Manager) constrainRec(f, c Ref) Ref {
	if c == One || f.IsConstant() || f == c {
		return m.Ref(f)
	}
	if f == c.Complement() {
		return Zero
	}
	if r, ok := m.cacheLookup(opConstrain, f, c, 0); ok {
		return m.Ref(r)
	}
	lev := m.top2(f, c)
	f1, f0 := m.cofs(f, lev)
	c1, c0 := m.cofs(c, lev)
	var r Ref
	switch {
	case c1 == Zero:
		r = m.constrainRec(f0, c0)
	case c0 == Zero:
		r = m.constrainRec(f1, c1)
	default:
		t := m.constrainRec(f1, c1)
		e := m.constrainRec(f0, c0)
		r = m.makeNode(lev, t, e)
		m.Deref(t)
		m.Deref(e)
	}
	m.cacheInsert(opConstrain, f, c, 0, r)
	return r
}

// Restrict returns the Coudert–Madre "restrict" of f by care set c: a
// function agreeing with f wherever c = 1, heuristically smaller than f.
// Unlike Constrain it abstracts from c the variables that do not appear in
// f along each path, avoiding the variable-introduction blowup. c must not
// be Zero.
func (m *Manager) Restrict(f, c Ref) Ref {
	if c == Zero {
		panic("bdd: Restrict with empty care set")
	}
	return m.restrictRec(f, c)
}

func (m *Manager) restrictRec(f, c Ref) Ref {
	if c == One || f.IsConstant() {
		return m.Ref(f)
	}
	if f == c {
		return One
	}
	if f == c.Complement() {
		return Zero
	}
	lf := m.nodes[f.index()].level
	lc := m.nodes[c.index()].level
	if lc < lf {
		// The top variable of c does not appear at the top of f:
		// abstract it from the care set (c := c1 OR c0) and retry.
		c1, c0 := m.cofs(c, lc)
		cc := m.andRec(c1.Complement(), c0.Complement()).Complement()
		r := m.restrictRec(f, cc)
		m.Deref(cc)
		return r
	}
	if r, ok := m.cacheLookup(opRestrict, f, c, 0); ok {
		return m.Ref(r)
	}
	f1, f0 := m.cofs(f, lf)
	c1, c0 := m.cofs(c, lf)
	var r Ref
	switch {
	case lc == lf && c1 == Zero:
		// The then branch is a don't care: remap to the else branch
		// (the transformation of Figure 1 in the paper).
		r = m.restrictRec(f0, c0)
	case lc == lf && c0 == Zero:
		r = m.restrictRec(f1, c1)
	default:
		t := m.restrictRec(f1, c1)
		e := m.restrictRec(f0, c0)
		r = m.makeNode(lf, t, e)
		m.Deref(t)
		m.Deref(e)
	}
	m.cacheInsert(opRestrict, f, c, 0, r)
	return r
}

// Minimize is a safe interval minimization µ(l, u): it returns a function r
// with l ≤ r ≤ u and |r| ≤ min(|l|, |u|). It implements the "safe
// minimization" contract of Hong et al. (DAC'97, reference [11] of the
// paper) by restricting both bounds against the care set l OR NOT u and
// keeping the smallest candidate that stays within the interval; l, u, and
// the interval squeeze (Squeeze) are always candidates, which guarantees
// safety.
func (m *Manager) Minimize(l, u Ref) Ref {
	if !m.Leq(l, u) {
		panic("bdd: Minimize requires l ≤ u")
	}
	return m.minimizeNow(l, u)
}

func (m *Manager) minimizeNow(l, u Ref) Ref {
	best := m.Ref(l)
	bestSize := m.DagSize(l)
	if sq := m.squeezeRec(l, u); m.DagSize(sq) < bestSize {
		m.Deref(best)
		best = sq
		bestSize = m.DagSize(sq)
	} else {
		m.Deref(sq)
	}
	if us := m.DagSize(u); us < bestSize {
		m.Deref(best)
		best = m.Ref(u)
		bestSize = us
	}
	// care = l OR ¬u; don't-care region is u·¬l.
	care := m.andRec(l.Complement(), u).Complement()
	if care == One {
		return best // no don't-cares: l == u
	}
	if care == Zero {
		// Everything is a don't care (l = 0, u = 1): any function
		// qualifies; the constant is the smallest.
		m.Deref(best)
		return Zero
	}
	for _, bound := range [2]Ref{l, u} {
		// A restrict of either bound against the care set agrees with
		// the bound on care and is arbitrary elsewhere, hence always
		// stays inside [l, u]. Keep it if smaller.
		cand := m.restrictRec(bound, care)
		if cs := m.DagSize(cand); cs < bestSize {
			m.Deref(best)
			best = cand
			bestSize = cs
		} else {
			m.Deref(cand)
		}
	}
	m.Deref(care)
	return best
}

// CofactorVar returns f with variable v fixed to the given value.
func (m *Manager) CofactorVar(f Ref, v int, value bool) Ref {
	lit := m.vars[v]
	if !value {
		lit = lit.Complement()
	}
	return m.CofactorCube(f, lit)
}

// CofactorCube returns f restricted by a cube of literals (conjunction of
// possibly negated variables): each variable in the cube is fixed to the
// polarity it appears with.
func (m *Manager) CofactorCube(f, cube Ref) Ref {
	return m.cofCubeRec(f, cube)
}

func (m *Manager) cofCubeRec(f, cube Ref) Ref {
	if cube == One || f.IsConstant() {
		return m.Ref(f)
	}
	if cube == Zero {
		panic("bdd: CofactorCube with contradictory cube")
	}
	lc := m.nodes[cube.index()].level
	lf := m.nodes[f.index()].level
	if lc < lf {
		// Variable absent from f: skip it in the cube.
		c1, c0 := m.cofs(cube, lc)
		if c0 == Zero {
			return m.cofCubeRec(f, c1)
		}
		return m.cofCubeRec(f, c0)
	}
	if r, ok := m.cacheLookup(opCofCube, f, cube, 0); ok {
		return m.Ref(r)
	}
	f1, f0 := m.cofs(f, lf)
	var r Ref
	if lc == lf {
		c1, c0 := m.cofs(cube, lf)
		if c0 == Zero { // positive literal
			r = m.cofCubeRec(f1, c1)
		} else { // negative literal
			r = m.cofCubeRec(f0, c0)
		}
	} else {
		t := m.cofCubeRec(f1, cube)
		e := m.cofCubeRec(f0, cube)
		r = m.makeNode(lf, t, e)
		m.Deref(t)
		m.Deref(e)
	}
	m.cacheInsert(opCofCube, f, cube, 0, r)
	return r
}

// Squeeze returns a heuristically small function inside the interval
// [l, u] by the classic interval-squeezing recursion: whenever the two
// branch intervals overlap, the result is made independent of the branch
// variable ([l1+l0, u1·u0] is a sub-interval of both). Unlike Minimize it
// does not guarantee |result| ≤ min(|l|, |u|), which is why Minimize uses
// it as one candidate among several.
func (m *Manager) Squeeze(l, u Ref) Ref {
	if !m.Leq(l, u) {
		panic("bdd: Squeeze requires l ≤ u")
	}
	return m.squeezeRec(l, u)
}

func (m *Manager) squeezeRec(l, u Ref) Ref {
	if l == Zero {
		return Zero // the constant is the smallest member
	}
	if u == One {
		return One
	}
	if l == u {
		return m.Ref(l)
	}
	if r, ok := m.cacheLookup(opSqueeze, l, u, 0); ok {
		return m.Ref(r)
	}
	lev := m.top2(l, u)
	l1, l0 := m.cofs(l, lev)
	u1, u0 := m.cofs(u, lev)
	var r Ref
	// If the branch intervals intersect, drop the variable entirely:
	// any g with l1+l0 ≤ g ≤ u1·u0 lies in both branch intervals.
	meetL := m.andRec(l1.Complement(), l0.Complement()).Complement() // l1 OR l0
	meetU := m.andRec(u1, u0)
	if m.leqRec(meetL, meetU) {
		r = m.squeezeRec(meetL, meetU)
	} else {
		t := m.squeezeRec(l1, u1)
		e := m.squeezeRec(l0, u0)
		r = m.makeNode(lev, t, e)
		m.Deref(t)
		m.Deref(e)
	}
	m.Deref(meetL)
	m.Deref(meetU)
	m.cacheInsert(opSqueeze, l, u, 0, r)
	return r
}
