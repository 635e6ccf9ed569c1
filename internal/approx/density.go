// Package approx implements the BDD approximation algorithms of Section 2
// of the DAC'98 paper "Approximation and Decomposition of Binary Decision
// Diagrams" (Ravi, McMillan, Shiple, Somenzi):
//
//   - HeavyBranch (HB): heavy-branch subsetting, Ravi–Somenzi ICCAD'95.
//   - ShortPaths (SP): short-path subsetting, Ravi–Somenzi ICCAD'95.
//   - UnderApprox (UA): Shiple's bddUnderApprox — replace-by-0 only, convex
//     cost, handles both complementation parities, not density-safe.
//   - RemapUnderApprox (RUA): the paper's new three-pass algorithm with
//     remap, replace-by-grandchild, and replace-by-0 transformations and a
//     density-based acceptance test (Figures 2–4 of the paper).
//   - Compound methods C1 and C2 (Section 2.2): compositions with the safe
//     interval minimization µ.
//
// All functions return under- (or over-) approximations in the BDD sense:
// UnderX(f) ⇒ f and f ⇒ OverX(f). Results carry one reference owned by the
// caller.
package approx

import (
	"math"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

// Density returns δ(f) = ‖f‖/|f| over the manager's variable count — the
// figure of merit the paper ranks approximations by.
func Density(m *bdd.Manager, f bdd.Ref) float64 {
	return math.Ldexp(count.Fraction(m, f), m.NumVars()) / float64(m.DagSize(f))
}

// nodeData is the per-node record of the analysis pass ("info" in Figure 2
// of the paper).
type nodeData struct {
	funcRef int32 // arcs within f pointing at this node (root counts 1)
	parity  uint8 // 1 = reached with even parity, 2 = odd, 3 = both
	// Fields below are used by markNodes.
	weightE float64 // fraction of assignments whose path reaches the node uncomplemented
	weightO float64 // same, through an odd number of complement arcs
	queued  bool
	status  replStatus
	sel     bdd.Ref // replacement description (meaning depends on status)
	selVar  int     // grandchild variable for statusGrandchild
	selThen bool    // grandchild direction: true = y·g, false = ¬y·g
}

type replStatus uint8

const (
	statusKeep replStatus = iota
	statusZero
	statusRemap
	statusGrandchild
)

const (
	parityEven = 1
	parityOdd  = 2
)

// info aggregates the analysis of one BDD ("info" of Figure 2): per-node
// data plus the global result estimates used by the density test.
type info struct {
	m     *bdd.Manager
	cfg   RemapConfig
	nodes map[uint32]*nodeData
	// fr holds the minterm fraction of every function reachable from f,
	// either polarity.
	fr *count.Fractions
	// buildOp is the per-invocation computed-table code under which the
	// rebuild pass memoizes its results in the manager's shared cache
	// (see buildResult).
	buildOp uint32
	// Estimates of the result: size in nodes and minterm fraction.
	resultSize int
	resultFrac float64
	rootFrac   float64
	rootSize   int
	// Bias fields (BiasedUnderApprox): when biasWeight > 1, minterm
	// losses at nodes overlapping the bias set are inflated by up to
	// that factor in the density test.
	biasWeight float64
	biasFrac   map[uint32]float64
}

// lossScale returns the multiplier the density test applies to minterm
// losses at the given node, according to the bias configuration.
func (in *info) lossScale(node bdd.Ref) float64 {
	if in.biasWeight <= 1 || in.biasFrac == nil {
		return 1
	}
	p := in.fr.Of(node.Regular())
	if p <= 0 {
		return 1
	}
	share := in.biasFrac[node.ID()] / p
	if share > 1 {
		share = 1
	}
	return 1 + (in.biasWeight-1)*share
}

// analyze performs the first pass of remapUnderApprox (Figure 2): one
// count.Fractions sweep for the minterm fraction of every function below
// f, then a depth-first traversal counting, for every node, the arcs
// pointing to it and the parities it is reached with.
func analyze(m *bdd.Manager, f bdd.Ref) *info {
	in := &info{m: m, nodes: make(map[uint32]*nodeData), fr: count.NewFractions(m, f)}
	in.collect(f)
	root := in.at(f)
	root.funcRef = 1
	in.markParity(f)
	in.rootFrac = in.fr.Of(f)
	in.rootSize = m.DagSize(f)
	in.resultSize = in.rootSize
	in.resultFrac = in.rootFrac
	return in
}

// at returns the record of f's node (by regular id).
func (in *info) at(f bdd.Ref) *nodeData { return in.nodes[f.ID()] }

// collect fills funcRef for every node reachable from f.
func (in *info) collect(f bdd.Ref) *nodeData {
	if d, ok := in.nodes[f.ID()]; ok {
		return d
	}
	d := &nodeData{}
	in.nodes[f.ID()] = d
	if !f.IsConstant() {
		in.collect(in.m.StructHi(f)).funcRef++
		in.collect(in.m.StructLo(f)).funcRef++
	}
	return d
}

// markParity records, for every node, the complementation parities of the
// paths reaching it from f.
func (in *info) markParity(f bdd.Ref) {
	bit := uint8(parityEven)
	if f.IsComplement() {
		bit = parityOdd
	}
	d := in.at(f)
	if d.parity&bit != 0 {
		return
	}
	d.parity |= bit
	if f.IsConstant() {
		return
	}
	c := bdd.Ref(0)
	if f.IsComplement() {
		c = 1
	}
	in.markParity(in.m.StructHi(f) ^ c)
	in.markParity(in.m.StructLo(f) ^ c)
}

// levelQueue is the priority queue of Figures 3 and 4: nodes are dequeued
// in increasing level order, so a node is processed only after every parent
// within f.
type levelQueue struct {
	m       *bdd.Manager
	buckets [][]bdd.Ref // level -> regular refs
	cur     int
	n       int
}

func newLevelQueue(m *bdd.Manager) *levelQueue {
	return &levelQueue{m: m, buckets: make([][]bdd.Ref, m.NumVars()+1)}
}

func (q *levelQueue) push(f bdd.Ref, lev int) {
	q.buckets[lev] = append(q.buckets[lev], f)
	if lev < q.cur {
		q.cur = lev
	}
	q.n++
}

func (q *levelQueue) pop() (bdd.Ref, bool) {
	for q.cur < len(q.buckets) {
		b := q.buckets[q.cur]
		if len(b) > 0 {
			f := b[len(b)-1]
			q.buckets[q.cur] = b[:len(b)-1]
			q.n--
			return f, true
		}
		q.cur++
	}
	return 0, false
}
