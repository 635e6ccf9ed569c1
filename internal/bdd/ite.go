package bdd

// Boolean connectives. ITE is the universal ternary operator; AND and XOR
// have dedicated recursions (they dominate real workloads and cache better),
// and the remaining connectives derive from them via complement arcs at zero
// cost.
//
// Every operation — public or recursive helper — returns a Ref that carries
// one reference owned by the caller; release it with Deref.
//
// Each kernel recursion (here and in quant.go) is written once and takes the
// worker w of the operation it serves. A nil worker — a serial manager, or
// serial code inside an exclusive section of a parallel one — means plain
// reference counts, the unstriped computed cache, no safe-point checkpoint
// and no fork. A parallel worker sends the same steps through the atomic
// and lock-striped primitives (parallel.go) and, above the granularity
// cutoff, forks one cofactor subproblem into its deque and joins it after
// computing the other inline. Both engines share terminal cases, operand
// normalization and cache keys, so they produce identical canonical results.

// run executes one public kernel operation. With reorder set it first runs
// the auto-reorder hook (see EnableAutoReorder for which operations take
// it). On a serial manager fn then gets a nil worker; on a parallel one it
// runs under the read lease, bracketed by beginOp/endOp, with the
// operation's worker. code names the operation for watchdog attribution.
func (m *Manager) run(code int32, reorder bool, fn func(w *parWorker)) {
	if reorder {
		m.maybeReorder()
	}
	e := m.par
	if e == nil {
		fn(nil)
		return
	}
	e.opLease.RLock()
	defer e.opLease.RUnlock()
	w, ctx := m.beginOp(code)
	defer m.endOp(w, ctx)
	fn(w)
}

// Not returns the negation of f. It is free (complement arc) and, for
// symmetry with the other operations, transfers a reference to the caller.
func (m *Manager) Not(f Ref) Ref {
	return m.Ref(f.Complement())
}

// and and xor run the two binary kernels as public operations; every
// binary connective is one of them plus complement arcs.
func (m *Manager) and(f, g Ref) (r Ref) {
	m.run(opcAnd, true, func(w *parWorker) { r = m.andRec(w, f, g, 1) })
	return r
}

func (m *Manager) xor(f, g Ref) (r Ref) {
	m.run(opcXor, true, func(w *parWorker) { r = m.xorRec(w, f, g, 1) })
	return r
}

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.and(f, g) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.and(f.Complement(), g.Complement()).Complement() }

// Nand returns NOT (f AND g).
func (m *Manager) Nand(f, g Ref) Ref { return m.and(f, g).Complement() }

// Nor returns NOT (f OR g).
func (m *Manager) Nor(f, g Ref) Ref { return m.and(f.Complement(), g.Complement()) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.xor(f, g) }

// Xnor returns NOT (f XOR g), i.e. f IFF g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.xor(f, g).Complement() }

// Implies returns f IMPLIES g, i.e. NOT f OR g.
func (m *Manager) Implies(f, g Ref) Ref { return m.and(f, g.Complement()).Complement() }

// Diff returns f AND NOT g (set difference when BDDs encode sets).
func (m *Manager) Diff(f, g Ref) Ref { return m.and(f, g.Complement()) }

// ITE returns if-then-else(f, g, h) = f·g + ¬f·h.
func (m *Manager) ITE(f, g, h Ref) (r Ref) {
	m.run(opcITE, true, func(w *parWorker) { r = m.iteRec(w, f, g, h, 1) })
	return r
}

// top2 returns the minimum level among the two operands' top nodes.
func (m *Manager) top2(f, g Ref) int32 {
	lf, lg := m.nodes[f.index()].level, m.nodes[g.index()].level
	if lg < lf {
		return lg
	}
	return lf
}

// cofs returns the two cofactors of f with respect to the variable at level
// lev; if f's top node sits below lev both cofactors are f itself.
func (m *Manager) cofs(f Ref, lev int32) (hi, lo Ref) {
	n := &m.nodes[f.index()]
	if n.level != lev {
		return f, f
	}
	c := f & 1
	return n.hi ^ c, n.lo ^ c
}

// andRec is the And kernel; depth counts recursion levels from the
// operation root and drives the fork cutoff.
func (m *Manager) andRec(w *parWorker, f, g Ref, depth int32) Ref {
	// Terminal cases.
	if f == Zero || g == Zero || f == g.Complement() {
		return Zero
	}
	if f == One || f == g {
		return m.refW(w, g)
	}
	if g == One {
		return m.refW(w, f)
	}
	// Commutative: order operands for cache coherence.
	if f > g {
		f, g = g, f
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opAnd, f, g, 0); ok {
		return m.refW(w, r)
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	var t, e Ref
	if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
		task := w.fork(taskAnd, f0, g0, 0, depth+1)
		t = m.andRec(w, f1, g1, depth+1)
		e = m.join(w, task)
	} else {
		t = m.andRec(w, f1, g1, depth+1)
		e = m.andRec(w, f0, g0, depth+1)
	}
	r := m.makeNodeW(w, lev, t, e)
	m.derefIndexW(w, t.index())
	m.derefIndexW(w, e.index())
	m.cacheInsertW(w, opAnd, f, g, 0, r)
	return r
}

func (m *Manager) xorRec(w *parWorker, f, g Ref, depth int32) Ref {
	if f == g {
		return Zero
	}
	if f == g.Complement() {
		return One
	}
	if f == Zero {
		return m.refW(w, g)
	}
	if g == Zero {
		return m.refW(w, f)
	}
	if f == One {
		return m.refW(w, g.Complement())
	}
	if g == One {
		return m.refW(w, f.Complement())
	}
	// XOR is commutative and self-complementing: normalize both operands
	// to regular refs, pulling complements out of the recursion.
	out := Ref(0)
	if f.IsComplement() {
		f ^= 1
		out ^= 1
	}
	if g.IsComplement() {
		g ^= 1
		out ^= 1
	}
	if f > g {
		f, g = g, f
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opXor, f, g, 0); ok {
		return m.refW(w, r) ^ out
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	var t, e Ref
	if w.shouldFork(depth) && !f0.IsConstant() && !g0.IsConstant() {
		task := w.fork(taskXor, f0, g0, 0, depth+1)
		t = m.xorRec(w, f1, g1, depth+1)
		e = m.join(w, task)
	} else {
		t = m.xorRec(w, f1, g1, depth+1)
		e = m.xorRec(w, f0, g0, depth+1)
	}
	r := m.makeNodeW(w, lev, t, e)
	m.derefIndexW(w, t.index())
	m.derefIndexW(w, e.index())
	m.cacheInsertW(w, opXor, f, g, 0, r)
	return r ^ out
}

// iteRec records the peak recursion depth with no decrement bookkeeping;
// Stats.PeakITEDepth feeds the obs registry.
func (m *Manager) iteRec(w *parWorker, f, g, h Ref, depth int32) Ref {
	st := &m.stats
	if w != nil {
		st = &w.stats
	}
	if int(depth) > st.PeakITEDepth {
		st.PeakITEDepth = int(depth)
	}
	// Terminal cases.
	switch {
	case f == One:
		return m.refW(w, g)
	case f == Zero:
		return m.refW(w, h)
	case g == h:
		return m.refW(w, g)
	case g == h.Complement():
		// ITE(f,g,¬g) = f XNOR g = ¬(f XOR g); with h = ¬g this is
		// f XOR h.
		return m.xorRec(w, f, h, depth)
	case f == g:
		g = One
	case f == g.Complement():
		g = Zero
	case f == h:
		h = Zero
	case f == h.Complement():
		h = One
	}
	if g == One && h == Zero {
		return m.refW(w, f)
	}
	if g == Zero && h == One {
		return m.refW(w, f.Complement())
	}
	if g == One {
		// f OR h
		return m.andRec(w, f.Complement(), h.Complement(), depth).Complement()
	}
	if h == Zero {
		return m.andRec(w, f, g, depth)
	}
	if g == Zero {
		// ¬f AND h
		return m.andRec(w, f.Complement(), h, depth)
	}
	if h == One {
		// ¬f OR g = ¬(f AND ¬g)
		return m.andRec(w, f, g.Complement(), depth).Complement()
	}
	// Normalize the triple: first make f regular, then make g regular,
	// pulling complements out so equivalent triples share cache entries.
	if f.IsComplement() {
		f ^= 1
		g, h = h, g
	}
	out := Ref(0)
	if g.IsComplement() {
		g ^= 1
		h ^= 1
		out = 1
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opIte, f, g, h); ok {
		return m.refW(w, r) ^ out
	}
	lev := m.top2(f, g)
	if lh := m.nodes[h.index()].level; lh < lev {
		lev = lh
	}
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	h1, h0 := m.cofs(h, lev)
	var t, e Ref
	if w.shouldFork(depth) && !f0.IsConstant() {
		task := w.fork(taskIte, f0, g0, h0, depth+1)
		t = m.iteRec(w, f1, g1, h1, depth+1)
		e = m.join(w, task)
	} else {
		t = m.iteRec(w, f1, g1, h1, depth+1)
		e = m.iteRec(w, f0, g0, h0, depth+1)
	}
	r := m.makeNodeW(w, lev, t, e)
	m.derefIndexW(w, t.index())
	m.derefIndexW(w, e.index())
	m.cacheInsertW(w, opIte, f, g, h, r)
	return r ^ out
}

// Leq reports whether f implies g (f ≤ g as sets), without building the
// difference BDD.
func (m *Manager) Leq(f, g Ref) (le bool) {
	m.run(opcLeq, false, func(w *parWorker) { le = m.leqRec(w, f, g) })
	return le
}

func (m *Manager) leqRec(w *parWorker, f, g Ref) bool {
	if f == Zero || g == One || f == g {
		return true
	}
	if f == One || g == Zero || f == g.Complement() {
		return false
	}
	w.checkpoint()
	if r, ok := m.cacheLookupW(w, opLeq, f, g, 0); ok {
		return r == One
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	res := m.leqRec(w, f1, g1) && m.leqRec(w, f0, g0)
	enc := Zero
	if res {
		enc = One
	}
	m.cacheInsertW(w, opLeq, f, g, 0, enc)
	return res
}
