package bdd

import "fmt"

// DebugCheck verifies the structural invariants of the manager: canonical
// form of every stored node, consistency of the unique table, and sanity of
// the reference counts. It returns the first violation found, or nil. It is
// meant for tests; it takes time linear in the arena. A violation is also
// reported to the manager's Observer, which lets the flight recorder dump
// the trace events leading up to the corruption.
func (m *Manager) DebugCheck() error {
	err := m.debugCheck()
	if err != nil && m.observer != nil {
		m.observer.DebugFailure(err)
	}
	return err
}

func (m *Manager) debugCheck() error {
	// Parent reference counts recomputed from live nodes.
	parentRefs := make([]int64, len(m.nodes))
	live := 0
	for lev := range m.subtables {
		st := &m.subtables[lev]
		seen := 0
		for b, head := range st.buckets {
			for idx := head; idx != nilIndex; idx = m.nodes[idx].next {
				seen++
				n := &m.nodes[idx]
				if n.level != int32(lev) {
					return fmt.Errorf("node %d stored at level %d but labeled %d", idx, lev, n.level)
				}
				if n.hi.IsComplement() {
					return fmt.Errorf("node %d has complemented then edge", idx)
				}
				if n.hi == n.lo {
					return fmt.Errorf("node %d is redundant (hi == lo)", idx)
				}
				for _, c := range [2]Ref{n.hi, n.lo} {
					cl := m.nodes[c.index()].level
					if cl <= n.level {
						return fmt.Errorf("node %d at level %d has child at level %d", idx, n.level, cl)
					}
				}
				if h := hash2(n.hi, n.lo) & st.mask; h != uint32(b) {
					return fmt.Errorf("node %d in wrong bucket", idx)
				}
				if n.ref > 0 {
					live++
					parentRefs[n.hi.index()]++
					parentRefs[n.lo.index()]++
				}
			}
		}
		if seen != st.count {
			return fmt.Errorf("level %d count %d but %d nodes chained", lev, st.count, seen)
		}
	}
	// Live internal nodes plus the terminal.
	if live+1 != m.liveCount {
		return fmt.Errorf("liveCount %d but %d live nodes found", m.liveCount, live+1)
	}
	// Every live parent reference must be covered by the child's count;
	// the surplus is the number of external references, which cannot be
	// negative. Dead nodes must hold no counted references.
	for idx := range m.nodes {
		n := &m.nodes[idx]
		if n.level == terminalLevel || n.level < 0 {
			continue // terminal or free-listed
		}
		if n.ref != refSaturated && int64(n.ref) < parentRefs[idx] {
			return fmt.Errorf("node %d has ref %d < %d live parents", idx, n.ref, parentRefs[idx])
		}
	}
	// No visible computed-cache entry may mention a freed arena slot
	// (selective invalidation must have dropped it).
	return m.checkCache()
}

// ReferencedNodeCount returns the number of live internal nodes (excludes
// the terminal), for tests that assert on leak-freedom.
func (m *Manager) ReferencedNodeCount() int { return m.liveCount - 1 }

// PermanentNodeCount returns the number of nodes that can never be
// reclaimed: the terminal plus one projection node per variable.
func (m *Manager) PermanentNodeCount() int { return 1 + len(m.vars) }
