package approx

import "bddkit/internal/bdd"

// ToBudget shrinks f until its DAG fits within maxNodes nodes, escalating
// through the paper's under-approximation operators: remap-based
// minimization first (best density per node dropped), then ShortPaths at
// halving thresholds, and finally the constant Zero — which is always a
// sound under-approximation. The result therefore always implies f
// (containment-soundness), making it the degraded-answer path for a
// server whose tenant has blown its node budget.
//
// ToBudget allocates intermediate nodes while it shrinks, so callers must
// invoke it with the manager's node limit disarmed — typically right
// after a bdd.Manager.Run returned a budget abort, outside that Run, whose
// limits are gone once it returns. The operation is filed under op
// "degrade" in the quality ledger of the manager's sink, if it has one.
//
// The returned reference is owned by the caller. maxNodes <= 0 means "no
// budget" and returns f itself (re-referenced).
func ToBudget(m *bdd.Manager, f bdd.Ref, maxNodes int) bdd.Ref {
	if maxNodes <= 0 || m.DagSize(f) <= maxNodes {
		return m.Ref(f)
	}
	lg := beginLedger(m, "degrade", f, maxNodes)
	// Remap pass: iterated RUA plus safe minimization keeps the densest
	// subfunctions; often enough on its own.
	r := IteratedRemap(m, f, maxNodes, 2, 0.5)
	if r != bdd.Zero && m.DagSize(r) > maxNodes {
		min := m.Minimize(r, f)
		m.Deref(r)
		r = min
	}
	// ShortPaths passes: guaranteed to shrink toward the threshold, so
	// halving thresholds converge; each pass subsets the previous result,
	// preserving containment.
	for t := maxNodes; m.DagSize(r) > maxNodes && t >= 1; t /= 2 {
		s := ShortPaths(m, r, t)
		m.Deref(r)
		r = s
	}
	if m.DagSize(r) > maxNodes {
		m.Deref(r)
		r = bdd.Zero
	}
	lg.done(r)
	return r
}
