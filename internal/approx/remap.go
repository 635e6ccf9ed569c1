package approx

import (
	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// RemapUnderApprox (RUA) is the paper's new safe underapproximation
// algorithm (Section 2.1, Figures 2–4). It returns g ⇒ f with, for
// quality ≥ 1, δ(g) ≥ δ(f) (Definition 1: safety).
//
// threshold is the target size: node replacement stops once the estimated
// result size drops below it (threshold 0 lets the algorithm reduce the
// BDD as much as the density test allows — the setting used for the
// paper's Tables 2 and 3).
//
// quality is the minimum acceptable ratio between the density of the
// result with and without each candidate replacement; 1.0 accepts only
// replacements that do not decrease density (safe), smaller values accept
// lossier replacements, larger values are greedier about density.
func RemapUnderApprox(m *bdd.Manager, f bdd.Ref, threshold int, quality float64) bdd.Ref {
	return RemapUnderApproxConfig(m, f, threshold, quality, RemapConfig{})
}

// RemapConfig selects which replacement types RUA may use — the knobs for
// the ablation study of the three transformations of Section 2.1.1. The
// zero value enables everything (the paper's algorithm).
type RemapConfig struct {
	// DisableRemap turns off replace-by-child (the constrain-style remap).
	DisableRemap bool
	// DisableGrandchild turns off replace-by-grandchild.
	DisableGrandchild bool
}

// RemapUnderApproxConfig is RemapUnderApprox with explicit replacement-type
// selection. With both types disabled only replace-by-0 remains, which
// makes the algorithm a density-gated variant of bddUnderApprox.
func RemapUnderApproxConfig(m *bdd.Manager, f bdd.Ref, threshold int, quality float64, cfg RemapConfig) bdd.Ref {
	defer m.PauseAutoReorder()()
	if f.IsConstant() {
		return m.Ref(f)
	}
	var sp *obs.Span
	if t := obs.Of(m).Tracer(); t.Enabled() { // gate so the disabled path never pays for DagSize
		sp = t.Begin("approx.rua",
			obs.Int("size_in", m.DagSize(f)),
			obs.Int("threshold", threshold),
			obs.F64("quality", quality))
	}
	lg := beginLedger(m, "rua", f, threshold)
	in := analyze(m, f)
	in.cfg = cfg
	markNodes(in, f, threshold, quality)
	r := buildResult(in, f)
	lg.done(r)
	if sp != nil {
		sp.End(obs.Int("size_out", m.DagSize(r)),
			obs.Str("level_deltas", levelDeltas(m, f, r)))
	}
	return r
}

// RemapOverApprox is the dual of RemapUnderApprox: it returns g with
// f ⇒ g, obtained by underapproximating ¬f.
func RemapOverApprox(m *bdd.Manager, f bdd.Ref, threshold int, quality float64) bdd.Ref {
	r := RemapUnderApprox(m, f.Complement(), threshold, quality)
	return r.Complement()
}

// replacement describes the outcome of findReplacement for one node.
type replacement struct {
	status  replStatus
	sel     bdd.Ref // remap: the replacing child (seen); grandchild: g (seen)
	selVar  int     // grandchild: the variable of the new node
	selThen bool    // grandchild: true for y·g, false for ¬y·g
	lost    float64 // minterm fraction lost by the replacement
	saved   int     // lower bound on nodes saved
	exclude bdd.Ref // node that gains the redirected arcs (survives), or f
}

// markNodes is the second pass (Figure 3): a top-down traversal in level
// order that decides, for each node, whether to replace it and how.
func markNodes(in *info, f bdd.Ref, threshold int, quality float64) {
	m := in.m
	q := newLevelQueue(m)
	root := in.at(f)
	if f.IsComplement() {
		root.weightO = 1
	} else {
		root.weightE = 1
	}
	root.queued = true
	q.push(root)
	for d := q.pop(); d != nil; d = q.pop() {
		v := d.ref
		done := threshold > 0 && in.resultSize <= threshold
		if !done && d.parity != parityEven|parityOdd && d.weightE+d.weightO > 0 {
			// Single-parity node: try the replacements in the order
			// remap, replace-by-grandchild, replace-by-0 and accept
			// the first that passes the density test.
			odd := d.parity == parityOdd
			seen := v
			if odd {
				seen = v.Complement()
			}
			rep, found := findReplacement(in, seen, d)
			rep.lost *= in.lossScale(seen)
			if found && densityRatio(in, rep) > quality {
				applyReplacement(in, d, rep)
			}
		}
		enqueueChildren(in, q, d)
	}
}

// findReplacement implements the three replacement types of Section 2.1.1.
// seen is the node as a function (parity applied); d is its record.
func findReplacement(in *info, seen bdd.Ref, d *nodeData) (replacement, bool) {
	m := in.m
	w := d.weightE + d.weightO // single parity: one term is zero
	pSeen := in.fr.Of(seen)
	ft := m.Hi(seen)
	fe := m.Lo(seen)

	// 1. remap: the function is unate in its top variable, so one child
	// contains the other; replace the node by the contained child.
	if !in.cfg.DisableRemap && m.Leq(fe, ft) {
		rep := replacement{
			status:  statusRemap,
			sel:     fe,
			lost:    w * (in.fr.Of(ft) - in.fr.Of(fe)) / 2,
			exclude: fe,
		}
		rep.saved = nodesSaved(in, d, rep)
		return rep, true
	}
	if !in.cfg.DisableRemap && m.Leq(ft, fe) {
		rep := replacement{
			status:  statusRemap,
			sel:     ft,
			lost:    w * (in.fr.Of(fe) - in.fr.Of(ft)) / 2,
			exclude: ft,
		}
		rep.saved = nodesSaved(in, d, rep)
		return rep, true
	}

	// 2. replace-by-grandchild: both children labeled by the same
	// variable and sharing a grandchild g; y·g (or ¬y·g) is contained in
	// the node's function and replaces it.
	if !in.cfg.DisableGrandchild && !ft.IsConstant() && !fe.IsConstant() && m.Level(ft) == m.Level(fe) {
		y := m.Var(ft)
		ftt, fte := m.Hi(ft), m.Lo(ft)
		fet, fee := m.Hi(fe), m.Lo(fe)
		if ftt == fet {
			rep := replacement{
				status:  statusGrandchild,
				sel:     ftt,
				selVar:  y,
				selThen: true,
				lost:    w * (pSeen - in.fr.Of(ftt)/2),
				exclude: ftt,
			}
			rep.saved = nodesSaved(in, d, rep) - 1 // one new node
			return rep, true
		}
		if fte == fee {
			rep := replacement{
				status:  statusGrandchild,
				sel:     fte,
				selVar:  y,
				selThen: false,
				lost:    w * (pSeen - in.fr.Of(fte)/2),
				exclude: fte,
			}
			rep.saved = nodesSaved(in, d, rep) - 1
			return rep, true
		}
	}

	// 3. replace-by-0: always applicable.
	rep := replacement{
		status:  statusZero,
		lost:    w * pSeen,
		exclude: bdd.One, // nothing survives by redirection
	}
	rep.saved = nodesSaved(in, d, rep)
	return rep, true
}

// nodesSaved (Figure 4) returns the number of nodes that disappear from the
// result if d's node is eliminated: the node itself plus every node all of
// whose remaining arcs come from eliminated nodes (domination), walking
// top-down in level order. The node named by rep.exclude survives by
// definition (it inherits the eliminated node's incoming arcs).
func nodesSaved(in *info, d *nodeData, rep replacement) int {
	return len(dominatedSet(in, d, rep.exclude))
}

// dominatedSet returns the records of the nodes eliminated together with
// d's node, and stamps each with the walk's epoch (in.epoch) in domd. A
// node is eliminated when every arc pointing to it within the (current,
// partially reduced) BDD comes from eliminated nodes — the localRef =
// functionRef test of Figure 4. exclude survives by definition. The walk
// follows the record links; its queue and the returned slice are reused
// by the next call.
//
// The result does not depend on the order in which the queue holds the
// nodes of one level: a node leaves the queue only after all of its
// parents (they sit at lower levels), so its local count is final when it
// is tested.
func dominatedSet(in *info, d *nodeData, exclude bdd.Ref) []*nodeData {
	in.epoch++
	e := in.epoch
	excl := exclude.Regular()
	d.walked, d.local = e, d.funcRef
	q := in.domQ
	q.push(d)
	dom := in.dom[:0]
	for u := q.pop(); u != nil; u = q.pop() {
		if u.local != u.funcRef || (u != d && u.ref == excl) {
			continue
		}
		u.domd = e
		dom = append(dom, u)
		for _, c := range [2]*nodeData{u.hi, u.lo} {
			if c.ref.IsConstant() {
				continue
			}
			if c.walked != e {
				c.walked, c.local = e, 0
				q.push(c)
			}
			c.local++
		}
	}
	in.dom = dom
	return dom
}

// densityRatio returns the ratio between the density of the estimated
// result with the replacement applied and without it.
func densityRatio(in *info, rep replacement) float64 {
	mOld := in.resultFrac
	sOld := float64(in.resultSize)
	mNew := mOld - rep.lost
	sNew := sOld - float64(rep.saved)
	if sNew < 1 {
		sNew = 1
	}
	if mOld <= 0 {
		return 0 // nothing left to lose; only structural cleanups matter
	}
	return (mNew * sOld) / (sNew * mOld)
}

// applyReplacement is updateInfo of Figure 3: it records the replacement,
// updates the global size and minterm estimates, and maintains funcRef so
// later domination queries see the reduced BDD.
func applyReplacement(in *info, d *nodeData, rep replacement) {
	d.status = rep.status
	d.sel = rep.sel
	d.selVar = rep.selVar
	d.selThen = rep.selThen
	in.resultFrac -= rep.lost
	in.resultSize -= rep.saved
	if in.resultSize < 1 {
		in.resultSize = 1
	}
	// Remove the arcs leaving the dominated set.
	for _, u := range dominatedSet(in, d, rep.exclude) {
		for _, c := range [2]*nodeData{u.hi, u.lo} {
			if c.ref.IsConstant() || c.domd == in.epoch {
				continue
			}
			c.funcRef--
		}
	}
	// The survivor named by the replacement inherits the incoming arcs of
	// the replaced node; a grandchild replacement also adds one arc from
	// the new node.
	switch rep.status {
	case statusRemap:
		if !rep.sel.IsConstant() {
			in.at(rep.sel).funcRef += d.funcRef
		}
	case statusGrandchild:
		if !rep.sel.IsConstant() {
			in.at(rep.sel).funcRef++
		}
	}
}

// enqueueChildren propagates path weights to the children that remain
// reachable under the node's (possibly replaced) form and enqueues them.
// Weights are deposited per seen function: a mass arriving at a child
// through an odd number of complement arcs arrives with odd parity.
func enqueueChildren(in *info, q *levelQueue, d *nodeData) {
	deposit := func(cd *nodeData, odd bool, mass float64) {
		if cd.ref.IsConstant() || mass == 0 {
			return
		}
		if odd {
			cd.weightO += mass
		} else {
			cd.weightE += mass
		}
		if !cd.queued {
			cd.queued = true
			q.push(cd)
		}
	}
	switch d.status {
	case statusKeep:
		// Children of the even-parity view and of the odd-parity view
		// (for nodes reached with both parities) each receive half of
		// the corresponding mass. The then arc is never complemented.
		loOdd := in.m.StructLo(d.ref).IsComplement()
		if d.weightE > 0 {
			deposit(d.hi, false, d.weightE/2)
			deposit(d.lo, loOdd, d.weightE/2)
		}
		if d.weightO > 0 {
			deposit(d.hi, true, d.weightO/2)
			deposit(d.lo, !loOdd, d.weightO/2)
		}
	case statusZero:
		// No paths continue below.
	case statusRemap:
		// All paths through the node continue into the kept child,
		// recorded as a seen function for the node's single parity.
		deposit(in.at(d.sel), d.sel.IsComplement(), d.weightE+d.weightO)
	case statusGrandchild:
		// Half of the paths (those agreeing with the new literal)
		// continue into the grandchild; the rest hit the constant.
		deposit(in.at(d.sel), d.sel.IsComplement(), (d.weightE+d.weightO)/2)
	}
}

// buildResult is the third pass (Figure 2): rebuild f applying the recorded
// replacements. Memoization is on seen functions, through the manager's
// shared computed table under a fresh per-invocation operation code (so
// entries from earlier invocations, keyed by the same Refs but different
// replacement decisions, can never be confused for this one's);
// single-parity replacement guarantees consistency. The returned Ref is
// owned by the caller.
func buildResult(in *info, f bdd.Ref) bdd.Ref {
	in.buildOp = in.m.CacheOp()
	return buildRec(in, f)
}

func buildRec(in *info, seen bdd.Ref) bdd.Ref {
	if seen.IsConstant() {
		return seen
	}
	m := in.m
	if r, ok := m.CacheLookup(in.buildOp, seen, 0, 0); ok {
		// The cached result may be dead (the memo holds no references);
		// revive it before any allocation can collect it.
		return m.Ref(r)
	}
	d := in.at(seen)
	var r bdd.Ref
	switch d.status {
	case statusZero:
		r = bdd.Zero
	case statusRemap:
		// The recorded child was computed for the parity the node is
		// reached with; seen necessarily has that parity.
		r = buildRec(in, d.sel)
	case statusGrandchild:
		g := buildRec(in, d.sel)
		y := m.IthVar(d.selVar)
		if d.selThen {
			r = m.ITE(y, g, bdd.Zero)
		} else {
			r = m.ITE(y, bdd.Zero, g)
		}
		m.Deref(g)
	default:
		t := buildRec(in, m.Hi(seen))
		e := buildRec(in, m.Lo(seen))
		r = m.ITE(m.IthVar(m.Var(seen)), t, e)
		m.Deref(t)
		m.Deref(e)
	}
	m.CacheInsert(in.buildOp, seen, 0, 0, r)
	return r
}
