package bdd

// Exact variable ordering for small managers: enumerate every permutation
// of the levels with the Steinhaus–Johnson–Trotter sequence, whose steps
// are single adjacent transpositions — exactly what swapInPlace provides —
// and park the order at the global minimum. Cost is n!·(swap cost), so it
// is gated to small variable counts; its role here is as the ground truth
// the sifting heuristic is tested against.

// ReorderExact selects exact minimization (variable counts up to
// ExactReorderMaxVars; larger managers fall back to converging sifting).
const ReorderExact ReorderMethod = 101

// ExactReorderMaxVars bounds exact reordering (9! = 362880 swaps).
const ExactReorderMaxVars = 9

func (m *Manager) exactReorder() {
	n := len(m.subtables)
	if n > ExactReorderMaxVars {
		prev := m.liveCount
		for {
			m.siftAll(SiftConfig{})
			if m.liveCount >= prev {
				return
			}
			prev = m.liveCount
		}
	}
	if n < 2 {
		return
	}
	// Steinhaus–Johnson–Trotter with directions: perm tracks element
	// positions abstractly; every emitted step is the level index of an
	// adjacent transposition applied to the manager.
	perm := make([]int, n) // perm[pos] = element id
	dir := make([]int, n)  // -1 left, +1 right, per element id
	pos := make([]int, n)  // pos[element] = position
	for i := range perm {
		perm[i] = i
		pos[i] = i
		dir[i] = -1
	}
	bestSize := m.liveCount
	bestStep := -1
	var seq []int
	for {
		// Find the largest mobile element.
		mobile := -1
		for e := n - 1; e >= 0; e-- {
			p := pos[e]
			q := p + dir[e]
			if q < 0 || q >= n {
				continue
			}
			if perm[q] < e {
				mobile = e
				break
			}
		}
		if mobile < 0 {
			break
		}
		p := pos[mobile]
		q := p + dir[mobile]
		lev := p
		if q < p {
			lev = q
		}
		size := m.swapInPlace(lev)
		seq = append(seq, lev)
		// Update the abstract permutation.
		other := perm[q]
		perm[p], perm[q] = perm[q], perm[p]
		pos[mobile], pos[other] = q, p
		if size < bestSize {
			bestSize = size
			bestStep = len(seq) - 1
		}
		// Reverse the direction of all elements larger than mobile.
		for e := mobile + 1; e < n; e++ {
			dir[e] = -dir[e]
		}
	}
	// Walk back from the final permutation to the best one: adjacent
	// transpositions are self-inverse, so undoing the tail of the
	// sequence in reverse order restores the best arrangement.
	for i := len(seq) - 1; i > bestStep; i-- {
		m.swapInPlace(seq[i])
	}
}
