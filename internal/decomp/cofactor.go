package decomp

import "bddkit/internal/bdd"

// Cofactor is the baseline decomposition of Cabodi et al. [6] and Narayan
// et al. [19] as re-implemented for the paper's Table 4: it chooses the
// single cofactoring variable that minimizes the size of the larger of the
// two cofactors (estimated in time linear in the product of the number of
// variables and |f|), and splits per Equation 1:
//
//	G = x + f_¬x,  H = ¬x + f_x   (conjunctive: G ∧ H = f)
func Cofactor(m *bdd.Manager, f bdd.Ref) Pair {
	defer m.PauseAutoReorder()()
	v, ok := bestSplitVar(m, f)
	if !ok {
		return Pair{G: m.Ref(f), H: bdd.One}
	}
	x := m.IthVar(v)
	fx := m.CofactorVar(f, v, true)
	fnx := m.CofactorVar(f, v, false)
	g := m.Or(x, fnx)
	h := m.Or(x.Complement(), fx)
	m.Deref(fx)
	m.Deref(fnx)
	return Pair{G: g, H: h}
}

// CofactorDisjunctive is the symmetric disjunctive split: G ∨ H = f with
// G = x·f_x and H = ¬x·f_¬x.
func CofactorDisjunctive(m *bdd.Manager, f bdd.Ref) Pair {
	defer m.PauseAutoReorder()()
	v, ok := bestSplitVar(m, f)
	if !ok {
		return Pair{G: m.Ref(f), H: bdd.Zero}
	}
	x := m.IthVar(v)
	fx := m.CofactorVar(f, v, true)
	fnx := m.CofactorVar(f, v, false)
	g := m.And(x, fx)
	h := m.And(x.Complement(), fnx)
	m.Deref(fx)
	m.Deref(fnx)
	return Pair{G: g, H: h}
}

// bestSplitVar returns the support variable minimizing
// max(|f_x|, |f_¬x|), using the linear-time cofactor size estimate.
func bestSplitVar(m *bdd.Manager, f bdd.Ref) (int, bool) {
	support := m.SupportVars(f)
	if len(support) == 0 {
		return 0, false
	}
	best, bestCost := support[0], int(^uint(0)>>1)
	for _, v := range support {
		c1 := EstimateCofactorSize(m, f, v, true)
		c0 := EstimateCofactorSize(m, f, v, false)
		cost := c1
		if c0 > cost {
			cost = c0
		}
		if cost < bestCost {
			bestCost = cost
			best = v
		}
	}
	return best, true
}

// EstimateCofactorSize estimates |f with variable v fixed to value| by
// counting the nodes reachable when arcs at v's level follow only the
// chosen branch. The estimate is exact up to the reductions the restricted
// graph would undergo, and costs one linear traversal.
func EstimateCofactorSize(m *bdd.Manager, f bdd.Ref, v int, value bool) int {
	lev := m.LevelOfVar(v)
	seen := m.NewMarks()
	defer seen.Release()
	count := 0
	var walk func(r bdd.Ref)
	walk = func(r bdd.Ref) {
		if r.IsConstant() || !seen.Mark(r) {
			return
		}
		count++
		if m.Level(r) == lev {
			if value {
				walk(m.StructHi(r))
			} else {
				walk(m.StructLo(r))
			}
			count-- // the node itself disappears in the cofactor
			return
		}
		walk(m.StructHi(r))
		walk(m.StructLo(r))
	}
	walk(f)
	return count + 1 // count the constant, as DagSize does
}
