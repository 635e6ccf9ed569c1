package approx

import (
	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/obs"
)

// HeavyBranch (HB) is heavy-branch subsetting (Ravi–Somenzi, ICCAD'95;
// Table 2 baseline of the paper). Starting at the root it repeatedly
// discards the "light branch" — the child with fewer minterms — replacing
// it with the constant Zero and descending into the heavy child, until the
// residual BDD fits the threshold. The result is a BDD with a string of
// nodes at the top, each with one constant child, ending in an untouched
// subgraph of f.
func HeavyBranch(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
	defer m.PauseAutoReorder()()
	if f.IsConstant() {
		return m.Ref(f)
	}
	if threshold < 1 {
		threshold = 1
	}
	var sp *obs.Span
	if t := obs.Of(m).Tracer(); t.Enabled() {
		sp = t.Begin("approx.hb",
			obs.Int("size_in", m.DagSize(f)),
			obs.Int("threshold", threshold))
	}
	lg := beginLedger(m, "hb", f, threshold)
	type step struct {
		v      int
		takeHi bool
	}
	var chain []step
	fr := count.NewFractions(m, f)
	cur := f
	for !cur.IsConstant() && m.DagSize(cur)+len(chain) > threshold {
		hi, lo := m.Hi(cur), m.Lo(cur)
		if fr.Of(hi) >= fr.Of(lo) {
			chain = append(chain, step{m.Var(cur), true})
			cur = hi
		} else {
			chain = append(chain, step{m.Var(cur), false})
			cur = lo
		}
	}
	// Rebuild: cur AND the conjunction of the literals chosen on the way
	// down. Each step keeps only the heavy cofactor, so the result is
	// contained in f.
	r := m.Ref(cur)
	for i := len(chain) - 1; i >= 0; i-- {
		v := m.IthVar(chain[i].v)
		var nr bdd.Ref
		if chain[i].takeHi {
			nr = m.ITE(v, r, bdd.Zero)
		} else {
			nr = m.ITE(v, bdd.Zero, r)
		}
		m.Deref(r)
		r = nr
	}
	lg.done(r)
	if sp != nil {
		sp.End(obs.Int("size_out", m.DagSize(r)),
			obs.Str("level_deltas", levelDeltas(m, f, r)))
	}
	return r
}
