package bdd

// Quantification and the relational product. Sets of variables to quantify
// are passed as positive cubes: BDDs that are conjunctions of positive
// literals, built with CubeFromVars. The recursions take the operation's
// worker like the connectives in ite.go.

// CubeFromVars returns the conjunction of the projection functions of the
// given variable indices (a positive cube). An empty set yields One.
func (m *Manager) CubeFromVars(vars []int) (r Ref) {
	m.run(opcCube, false, func(w *parWorker) { r = m.cube(w, vars) })
	return r
}

// cube builds the positive cube of vars bottom-up in level order, so each
// node creation is O(1).
func (m *Manager) cube(w *parWorker, vars []int) Ref {
	levels := make([]int32, 0, len(vars))
	for _, v := range vars {
		levels = append(levels, m.varToLev[v])
	}
	// Insertion sort: var sets are small.
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] < levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	r := One
	for i := len(levels) - 1; i >= 0; i-- {
		if i < len(levels)-1 && levels[i] == levels[i+1] {
			continue // duplicate variable
		}
		nr := m.makeNodeW(w, levels[i], r, Zero)
		m.derefIndexW(w, r.index())
		r = nr
	}
	return r
}

// Exists returns ∃vars. f.
func (m *Manager) Exists(f Ref, vars []int) Ref {
	cube := m.CubeFromVars(vars)
	r := m.ExistsCube(f, cube)
	m.Deref(cube)
	return r
}

// ExistsCube returns ∃cube. f where cube is a positive cube of the
// variables to abstract.
func (m *Manager) ExistsCube(f, cube Ref) (r Ref) {
	m.run(opcExists, true, func(w *parWorker) { r = m.existsRec(w, f, cube, 1) })
	return r
}

// ForAll returns ∀vars. f.
func (m *Manager) ForAll(f Ref, vars []int) Ref {
	cube := m.CubeFromVars(vars)
	r := m.ForAllCube(f, cube)
	m.Deref(cube)
	return r
}

// ForAllCube returns ∀cube. f, computed as ¬∃cube. ¬f.
func (m *Manager) ForAllCube(f, cube Ref) Ref { return m.ExistsCube(f.Complement(), cube).Complement() }

// AndExists returns ∃cube. (f AND g) without building f AND g first — the
// relational-product operation at the heart of image computation.
func (m *Manager) AndExists(f, g, cube Ref) (r Ref) {
	m.run(opcAndExists, true, func(w *parWorker) { r = m.andExistsRec(w, f, g, cube, 1) })
	return r
}

// skipCube advances cube past quantified variables that sit above level
// lev in the order (they cannot occur in the operand below).
func (m *Manager) skipCube(cube Ref, lev int32) Ref {
	for cube != One && m.nodes[cube.index()].level < lev {
		cube = m.nodes[cube.index()].hi // positive cube: hi continues the chain
	}
	return cube
}

func (m *Manager) existsRec(w *parWorker, f, cube Ref, depth int32) Ref {
	if f.IsConstant() || cube == One {
		return m.refW(w, f)
	}
	lev := m.nodes[f.index()].level
	cube = m.skipCube(cube, lev)
	if cube == One {
		return m.refW(w, f)
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opExists, f, cube, 0); ok {
		return m.refW(w, r)
	}
	f1, f0 := m.cofs(f, lev)
	quantified := m.nodes[cube.index()].level == lev
	next := cube
	if quantified {
		next = m.nodes[cube.index()].hi
	}
	var t Ref
	e := One // kept only when t == One already decides the OR
	if w.shouldFork(depth) && !f0.IsConstant() {
		task := w.fork(taskExists, f0, next, 0, depth+1)
		t = m.existsRec(w, f1, next, depth+1)
		e = m.join(w, task)
	} else if t = m.existsRec(w, f1, next, depth+1); !quantified || t != One {
		e = m.existsRec(w, f0, next, depth+1)
	}
	var r Ref
	if quantified {
		r = m.andRec(w, t.Complement(), e.Complement(), depth+1).Complement() // t OR e
	} else {
		r = m.makeNodeW(w, lev, t, e)
	}
	m.derefIndexW(w, t.index())
	m.derefIndexW(w, e.index())
	m.cacheInsertW(w, opExists, f, cube, 0, r)
	return r
}

func (m *Manager) andExistsRec(w *parWorker, f, g, cube Ref, depth int32) Ref {
	// Terminal cases.
	if f == Zero || g == Zero || f == g.Complement() {
		return Zero
	}
	if f == g {
		return m.existsRec(w, f, cube, depth)
	}
	if f == One {
		return m.existsRec(w, g, cube, depth)
	}
	if g == One {
		return m.existsRec(w, f, cube, depth)
	}
	lev := m.top2(f, g)
	cube = m.skipCube(cube, lev)
	if cube == One {
		return m.andRec(w, f, g, depth)
	}
	if f > g {
		f, g = g, f
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opAndExists, f, g, cube); ok {
		return m.refW(w, r)
	}
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	quantified := m.nodes[cube.index()].level == lev
	next := cube
	if quantified {
		next = m.nodes[cube.index()].hi
	}
	var t Ref
	e := One // kept only when t == One already decides the OR
	if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
		task := w.fork(taskAndExists, f0, g0, next, depth+1)
		t = m.andExistsRec(w, f1, g1, next, depth+1)
		e = m.join(w, task)
	} else if t = m.andExistsRec(w, f1, g1, next, depth+1); !quantified || t != One {
		e = m.andExistsRec(w, f0, g0, next, depth+1)
	}
	var r Ref
	if quantified {
		r = m.andRec(w, t.Complement(), e.Complement(), depth+1).Complement() // t OR e
	} else {
		r = m.makeNodeW(w, lev, t, e)
	}
	m.derefIndexW(w, t.index())
	m.derefIndexW(w, e.index())
	m.cacheInsertW(w, opAndExists, f, g, cube, r)
	return r
}

// Permute returns f with each variable v replaced by variable perm[v].
// perm must be a permutation of 0..NumVars-1 (entries for variables outside
// f's support are ignored). A per-call memo table is used because the cache
// key would otherwise have to identify perm.
func (m *Manager) Permute(f Ref, perm []int) (r Ref) {
	m.run(opcPermute, false, func(w *parWorker) {
		memo := make(map[Ref]Ref)
		r = m.permuteRec(w, f, perm, memo)
		// The memo owns one reference per entry; the result picked up an
		// extra one to survive the release below.
		m.refW(w, r)
		for _, v := range memo {
			m.derefIndexW(w, v.index())
		}
	})
	return r
}

func (m *Manager) permuteRec(w *parWorker, f Ref, perm []int, memo map[Ref]Ref) Ref {
	if f.IsConstant() {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	w.checkpoint()
	v := m.Var(f)
	t := m.permuteRec(w, m.Hi(f), perm, memo)
	e := m.permuteRec(w, m.Lo(f), perm, memo)
	// The new variable may sit anywhere in the order, so compose with ITE
	// rather than makeNode.
	r := m.iteRec(w, m.vars[perm[v]], t, e, 1)
	memo[f] = r
	return r
}

// Compose returns f with variable v substituted by function g.
func (m *Manager) Compose(f Ref, v int, g Ref) (r Ref) {
	m.run(opcCompose, false, func(w *parWorker) { r = m.composeRec(w, f, m.varToLev[v], g) })
	return r
}

func (m *Manager) composeRec(w *parWorker, f Ref, lev int32, g Ref) Ref {
	fl := m.nodes[f.index()].level
	if fl > lev {
		return m.refW(w, f) // v not in f's remaining support
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opCompose, f, g, Ref(lev)); ok {
		return m.refW(w, r)
	}
	var r Ref
	if fl == lev {
		f1, f0 := m.cofs(f, lev)
		r = m.iteRec(w, g, f1, f0, 1)
	} else {
		f1, f0 := m.cofs(f, fl)
		t := m.composeRec(w, f1, lev, g)
		e := m.composeRec(w, f0, lev, g)
		// The top variable of f stays in place; g may contain
		// variables above it, in which case ITE is required.
		v := m.vars[m.levToVar[fl]]
		r = m.iteRec(w, v, t, e, 1)
		m.derefIndexW(w, t.index())
		m.derefIndexW(w, e.index())
	}
	m.cacheInsertW(w, opCompose, f, g, Ref(lev), r)
	return r
}
