package bdd

// Marks is a visited set over the node arena: one uint32 stamp per arena
// slot and the epoch of the traversal that owns it. A slot is marked when
// its stamp equals the epoch, so starting a traversal is O(1) (bump the
// epoch) instead of a fresh hash set. The manager keeps released sets and
// hands them out again, so a traversal costs no allocation once the pool
// holds a set as large as the arena.
//
// A Marks belongs to one traversal: traversals in flight at once (nested
// ones, say) each take their own, at 4 bytes per arena slot.
type Marks struct {
	m     *Manager
	stamp []uint32
	epoch uint32
}

// NewMarks returns an empty visited set sized for the current arena. It
// grows on demand when Mark meets a node past that size. Call Release when
// the traversal is done.
func (m *Manager) NewMarks() *Marks {
	var s *Marks
	if k := len(m.marksFree); k > 0 {
		s = m.marksFree[k-1]
		m.marksFree = m.marksFree[:k-1]
	} else {
		s = &Marks{m: m}
	}
	if n := len(m.nodes); len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps would read as marked
		clear(s.stamp)
		s.epoch = 1
	}
	return s
}

// Mark marks f's node and reports whether it was unmarked before: true on
// the first visit of the traversal, false on every later one. f and its
// complement share one mark.
func (s *Marks) Mark(f Ref) bool {
	i := f.index()
	if int(i) >= len(s.stamp) {
		s.grow(int(i))
	}
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	return true
}

// grow extends the stamps past slot i (the arena grew after NewMarks).
func (s *Marks) grow(i int) {
	n := 2 * len(s.stamp)
	if n <= i {
		n = i + 1
	}
	grown := make([]uint32, n)
	copy(grown, s.stamp)
	s.stamp = grown
}

// Release returns the set to its manager for the next traversal. The
// caller must not use it afterwards.
func (s *Marks) Release() { s.m.marksFree = append(s.m.marksFree, s) }
