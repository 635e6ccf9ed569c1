package bdd

// Boolean connectives. ITE is the universal ternary operator; AND and XOR
// have dedicated recursions (they dominate real workloads and cache better),
// and the remaining connectives derive from them via complement arcs at zero
// cost.
//
// Every operation — public or recursive helper — returns a Ref that carries
// one reference owned by the caller; release it with Deref. The public
// connectives, ITE and the quantifiers first run the auto-reorder hook
// (see EnableAutoReorder).

// Not returns the negation of f. It is free (complement arc) and, for
// symmetry with the other operations, transfers a reference to the caller.
func (m *Manager) Not(f Ref) Ref {
	return m.Ref(f.Complement())
}

// and and xor run the two binary kernels as public operations; every
// binary connective is one of them plus complement arcs.
func (m *Manager) and(f, g Ref) Ref {
	m.maybeReorder()
	return m.andRec(f, g)
}

func (m *Manager) xor(f, g Ref) Ref {
	m.maybeReorder()
	return m.xorRec(f, g)
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
func (m *Manager) ITE(f, g, h Ref) Ref {
	m.maybeReorder()
	return m.iteRec(f, g, h, 1)
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

// andRec is the And kernel.
func (m *Manager) andRec(f, g Ref) Ref {
	// Terminal cases.
	if f == Zero || g == Zero || f == g.Complement() {
		return Zero
	}
	if f == One || f == g {
		return m.Ref(g)
	}
	if g == One {
		return m.Ref(f)
	}
	// Commutative: order operands for cache coherence.
	if f > g {
		f, g = g, f
	}
	if r, ok := m.cacheLookup(opAnd, f, g, 0); ok {
		return m.Ref(r)
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	t := m.andRec(f1, g1)
	e := m.andRec(f0, g0)
	r := m.makeNode(lev, t, e)
	m.derefIndex(t.index())
	m.derefIndex(e.index())
	m.cacheInsert(opAnd, f, g, 0, r)
	return r
}

func (m *Manager) xorRec(f, g Ref) Ref {
	if f == g {
		return Zero
	}
	if f == g.Complement() {
		return One
	}
	if f == Zero {
		return m.Ref(g)
	}
	if g == Zero {
		return m.Ref(f)
	}
	if f == One {
		return m.Ref(g.Complement())
	}
	if g == One {
		return m.Ref(f.Complement())
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
	if r, ok := m.cacheLookup(opXor, f, g, 0); ok {
		return m.Ref(r) ^ out
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	t := m.xorRec(f1, g1)
	e := m.xorRec(f0, g0)
	r := m.makeNode(lev, t, e)
	m.derefIndex(t.index())
	m.derefIndex(e.index())
	m.cacheInsert(opXor, f, g, 0, r)
	return r ^ out
}

// iteRec records the peak recursion depth (depth counts levels from the
// operation root) with no decrement bookkeeping; Stats.PeakITEDepth feeds
// the obs registry.
func (m *Manager) iteRec(f, g, h Ref, depth int32) Ref {
	if int(depth) > m.stats.PeakITEDepth {
		m.stats.PeakITEDepth = int(depth)
	}
	// Terminal cases.
	switch {
	case f == One:
		return m.Ref(g)
	case f == Zero:
		return m.Ref(h)
	case g == h:
		return m.Ref(g)
	case g == h.Complement():
		// ITE(f,g,¬g) = f XNOR g = ¬(f XOR g); with h = ¬g this is
		// f XOR h.
		return m.xorRec(f, h)
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
		return m.Ref(f)
	}
	if g == Zero && h == One {
		return m.Ref(f.Complement())
	}
	if g == One {
		// f OR h
		return m.andRec(f.Complement(), h.Complement()).Complement()
	}
	if h == Zero {
		return m.andRec(f, g)
	}
	if g == Zero {
		// ¬f AND h
		return m.andRec(f.Complement(), h)
	}
	if h == One {
		// ¬f OR g = ¬(f AND ¬g)
		return m.andRec(f, g.Complement()).Complement()
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
	if r, ok := m.cacheLookup(opIte, f, g, h); ok {
		return m.Ref(r) ^ out
	}
	lev := m.top2(f, g)
	if lh := m.nodes[h.index()].level; lh < lev {
		lev = lh
	}
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	h1, h0 := m.cofs(h, lev)
	t := m.iteRec(f1, g1, h1, depth+1)
	e := m.iteRec(f0, g0, h0, depth+1)
	r := m.makeNode(lev, t, e)
	m.derefIndex(t.index())
	m.derefIndex(e.index())
	m.cacheInsert(opIte, f, g, h, r)
	return r ^ out
}

// Leq reports whether f implies g (f ≤ g as sets), without building the
// difference BDD.
func (m *Manager) Leq(f, g Ref) bool { return m.leqRec(f, g) }

func (m *Manager) leqRec(f, g Ref) bool {
	if f == Zero || g == One || f == g {
		return true
	}
	if f == One || g == Zero || f == g.Complement() {
		return false
	}
	if r, ok := m.cacheLookup(opLeq, f, g, 0); ok {
		return r == One
	}
	lev := m.top2(f, g)
	f1, f0 := m.cofs(f, lev)
	g1, g0 := m.cofs(g, lev)
	res := m.leqRec(f1, g1) && m.leqRec(f0, g0)
	enc := Zero
	if res {
		enc = One
	}
	m.cacheInsert(opLeq, f, g, 0, enc)
	return res
}
