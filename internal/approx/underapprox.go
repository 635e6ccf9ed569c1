package approx

import "bddkit/internal/bdd"

// UnderApprox (UA) is the original bddUnderApprox of Shiple (references
// [25, 26] of the paper). It differs from RemapUnderApprox in two ways
// (Section 2.1.3):
//
//   - the cost function is a convex combination of the number of minterms
//     and the number of nodes rather than their ratio, and
//   - only replace-by-0 is used, which makes it easy to replace nodes
//     reached through both complementation parities (the node reads as the
//     constant Zero in each phase).
//
// Because replacing a both-parity node may split a node higher in the BDD,
// UA is not density-safe, but on average it produces dense subsets and it
// is always a true underapproximation: UA(f) ⇒ f.
//
// alpha ∈ (0,1) weighs minterm retention against node savings: a
// replacement is accepted when
//
//	(1-alpha)·saved/|f| ≥ alpha·lost/‖f‖.
//
// alpha = 0.5 reproduces the balanced setting used in the paper's
// experiments. threshold, as in RUA, stops replacement once the estimated
// result size drops below it (0 = no early stop).
func UnderApprox(m *bdd.Manager, f bdd.Ref, threshold int, alpha float64) bdd.Ref {
	defer m.PauseAutoReorder()()
	if f.IsConstant() {
		return m.Ref(f)
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	lg := beginLedger(m, "ua", f, threshold)
	in := analyze(m, f)
	uaMark(in, f, threshold, alpha)
	r := buildResult(in, f)
	lg.done(r)
	return r
}

// OverApprox is the dual of UnderApprox: f ⇒ OverApprox(f).
func OverApprox(m *bdd.Manager, f bdd.Ref, threshold int, alpha float64) bdd.Ref {
	r := UnderApprox(m, f.Complement(), threshold, alpha)
	return r.Complement()
}

// uaMark is the marking pass of UA: top-down in level order, considering
// only replace-by-0, allowing both parities.
func uaMark(in *info, f bdd.Ref, threshold int, alpha float64) {
	m := in.m
	q := newLevelQueue(m)
	root := in.at(f)
	if f.IsComplement() {
		root.weightO = 1
	} else {
		root.weightE = 1
	}
	root.queued = true
	q.push(f.Regular(), m.Level(f))
	rootSize := float64(in.rootSize)
	rootM := in.rootFrac
	for {
		v, ok := q.pop()
		if !ok {
			break
		}
		d := in.at(v)
		done := threshold > 0 && in.resultSize <= threshold
		w := d.weightE + d.weightO
		if !done && w > 0 && v != f.Regular() {
			// Minterms lost: paths reaching the node with even parity
			// lose its on-set; paths with odd parity lose the on-set
			// of the complement (each phase reads Zero).
			lost := 0.0
			if d.weightE > 0 {
				lost += d.weightE * in.fr.Of(v)
			}
			if d.weightO > 0 {
				lost += d.weightO * in.fr.Of(v.Complement())
			}
			rep := replacement{status: statusZero, exclude: bdd.One, lost: lost}
			rep.saved = nodesSaved(in, v, rep)
			if rootM > 0 &&
				(1-alpha)*float64(rep.saved)/rootSize >= alpha*rep.lost/rootM {
				applyReplacement(in, v, d, rep)
			}
		}
		enqueueChildren(in, q, v, d)
	}
}
