package bdd

// Sizes: DAG and shared-forest node counts, and the path count. Minterm
// counts and the density δ(g) = ‖g‖/|g| that Section 2 of the paper ranks
// approximations by live in internal/count and approx.Density.

// DagSize returns |f|: the number of distinct nodes in the BDD rooted at f,
// including the constant node (the CUDD convention).
func (m *Manager) DagSize(f Ref) int {
	var n int
	m.readLocked(func() { n = m.dagSize(f) })
	return n
}

// dagSize is the lock-free body of DagSize, for internal use under a lease
// the caller already holds.
func (m *Manager) dagSize(f Ref) int {
	seen := make(map[int32]struct{})
	m.dagSizeRec(f.index(), seen)
	return len(seen)
}

func (m *Manager) dagSizeRec(idx int32, seen map[int32]struct{}) {
	if _, ok := seen[idx]; ok {
		return
	}
	seen[idx] = struct{}{}
	n := &m.nodes[idx]
	if n.level == terminalLevel {
		return
	}
	m.dagSizeRec(n.hi.index(), seen)
	m.dagSizeRec(n.lo.index(), seen)
}

// SharingSize returns the number of distinct nodes in the forest rooted at
// the given functions — the "shared size" reported in Table 4 of the paper.
func (m *Manager) SharingSize(fs []Ref) int {
	seen := make(map[int32]struct{})
	m.readLocked(func() {
		for _, f := range fs {
			m.dagSizeRec(f.index(), seen)
		}
	})
	return len(seen)
}

// CountPath returns the number of paths from f's root to the constant One
// (the number of cubes an AllSat enumeration would produce), as float64.
func (m *Manager) CountPath(f Ref) float64 {
	type key struct {
		idx int32
		neg bool
	}
	memo := make(map[key]float64)
	var rec func(r Ref) float64
	rec = func(r Ref) float64 {
		if r == One {
			return 1
		}
		if r == Zero {
			return 0
		}
		k := key{r.index(), r.IsComplement()}
		if v, ok := memo[k]; ok {
			return v
		}
		n := &m.nodes[r.index()]
		c := r & 1
		v := rec(n.hi^c) + rec(n.lo^c)
		memo[k] = v
		return v
	}
	var out float64
	m.readLocked(func() { out = rec(f) })
	return out
}
