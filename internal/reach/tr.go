// Package reach implements symbolic reachability analysis: partitioned
// transition relations with clustering and early quantification, image
// computation with optional partial-image subsetting, conventional
// breadth-first traversal, and the high-density traversal of Ravi–Somenzi
// (ICCAD'95) that the paper's Table 1 experiments accelerate with the RUA
// and SP approximation algorithms.
package reach

import (
	"fmt"
	"math"
	"math/big"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/obs"
)

// TR is a clustered conjunctive transition relation with a quantification
// schedule: cluster k is conjoined k-th during image computation and
// Schedule[k] is the cube of present-state and input variables that occur
// in no later cluster and can be abstracted immediately (early
// quantification, after Burch–Clarke–Long [3] / the IWLS'95 heuristics of
// Ranjan et al. [22]).
type TR struct {
	M        *bdd.Manager
	Clusters []bdd.Ref
	Schedule []bdd.Ref // quantification cube per cluster
	PreCube  bdd.Ref   // variables quantifiable before the first cluster

	StateVars []int
	NextVars  []int
	InputVars []int
	n2s       []int // permutation renaming next-state to state vars
	s2n       []int // inverse: state to next-state vars

	preSchedule []bdd.Ref // lazy: early-quantification cubes for PreImage
	prePre      bdd.Ref   // lazy: (y,w) vars in no cluster
}

// TROptions controls transition-relation construction.
type TROptions struct {
	// ClusterSize is the node-count threshold up to which adjacent bit
	// relations are conjoined into one cluster (the partitioned-TR
	// threshold of Burch–Clarke–Long).
	ClusterSize int
}

// DefaultTROptions returns the settings used by the Table 1 harness.
func DefaultTROptions() TROptions { return TROptions{ClusterSize: 2500} }

// NewTR builds the clustered transition relation of a compiled circuit:
// bit relations y_i ≡ δ_i(x, w), greedily conjoined while the product
// stays below the cluster threshold.
func NewTR(c *circuit.Compiled, opts TROptions) (*TR, error) {
	if len(c.NextVars) == 0 {
		return nil, fmt.Errorf("reach: compiled circuit has no next-state variables")
	}
	if opts.ClusterSize <= 0 {
		opts.ClusterSize = DefaultTROptions().ClusterSize
	}
	m := c.M
	tr := &TR{
		M:         m,
		StateVars: c.StateVars,
		NextVars:  c.NextVars,
		InputVars: c.InputVars,
	}
	t := obs.Of(m).Tracer()
	csp := t.Begin("reach.cluster",
		obs.Int("latches", len(c.Next)),
		obs.Int("cluster_size", opts.ClusterSize))
	// Bit relations in latch order; the interleaved variable order makes
	// neighboring latches likely to share support, which is what greedy
	// clustering exploits.
	cluster := m.Ref(bdd.One)
	flush := func() {
		if cluster != bdd.One {
			tr.Clusters = append(tr.Clusters, cluster)
			cluster = m.Ref(bdd.One)
		}
	}
	for i, delta := range c.Next {
		y := m.IthVar(c.NextVars[i])
		bit := m.Xnor(y, delta)
		merged := m.And(cluster, bit)
		if m.DagSize(merged) > opts.ClusterSize && cluster != bdd.One {
			// Keep the previous cluster; the bit relation starts a
			// new one.
			m.Deref(merged)
			flush()
			cluster2 := m.And(cluster, bit)
			m.Deref(cluster)
			cluster = cluster2
		} else {
			m.Deref(cluster)
			cluster = merged
		}
		m.Deref(bit)
	}
	flush()
	m.Deref(cluster)
	csp.End(obs.Int("clusters", len(tr.Clusters)))

	ssp := t.Begin("reach.schedule", obs.Int("clusters", len(tr.Clusters)))
	tr.buildSchedule()
	ssp.End()
	tr.n2s = make([]int, m.NumVars())
	tr.s2n = make([]int, m.NumVars())
	for v := range tr.n2s {
		tr.n2s[v] = v
		tr.s2n[v] = v
	}
	for i, y := range c.NextVars {
		tr.n2s[y] = c.StateVars[i]
		tr.s2n[c.StateVars[i]] = y
	}
	return tr, nil
}

// buildSchedule computes, for every present-state and input variable, the
// last cluster whose support contains it; the variable is quantified right
// after that cluster is conjoined. Variables in no cluster at all go into
// PreCube and are abstracted from the frontier before the first
// conjunction.
func (tr *TR) buildSchedule() {
	m := tr.M
	last := make(map[int]int)
	quantifiable := make(map[int]bool)
	for _, v := range tr.StateVars {
		quantifiable[v] = true
	}
	for _, v := range tr.InputVars {
		quantifiable[v] = true
	}
	for k, c := range tr.Clusters {
		for _, v := range m.SupportVars(c) {
			if quantifiable[v] {
				last[v] = k
			}
		}
	}
	var pre []int
	for v := range quantifiable {
		if _, ok := last[v]; !ok {
			pre = append(pre, v)
		}
	}
	tr.PreCube = m.CubeFromVars(pre)
	byCluster := make([][]int, len(tr.Clusters))
	for v, k := range last {
		byCluster[k] = append(byCluster[k], v)
	}
	for _, vars := range byCluster {
		tr.Schedule = append(tr.Schedule, m.CubeFromVars(vars))
	}
}

// buildPreSchedule lazily computes the early-quantification schedule for
// backward images: next-state and input variables are abstracted right
// after the last cluster mentioning them.
func (tr *TR) buildPreSchedule() {
	if tr.preSchedule != nil {
		return
	}
	m := tr.M
	quantifiable := make(map[int]bool)
	for _, v := range tr.NextVars {
		quantifiable[v] = true
	}
	for _, v := range tr.InputVars {
		quantifiable[v] = true
	}
	last := make(map[int]int)
	for k, c := range tr.Clusters {
		for _, v := range m.SupportVars(c) {
			if quantifiable[v] {
				last[v] = k
			}
		}
	}
	var pre []int
	for v := range quantifiable {
		if _, ok := last[v]; !ok {
			pre = append(pre, v)
		}
	}
	tr.prePre = m.CubeFromVars(pre)
	byCluster := make([][]int, len(tr.Clusters))
	for v, k := range last {
		byCluster[k] = append(byCluster[k], v)
	}
	for _, vars := range byCluster {
		tr.preSchedule = append(tr.preSchedule, m.CubeFromVars(vars))
	}
}

// PreImage computes the set of predecessors of to (a predicate over the
// present-state variables), again over the present-state variables:
// Pre(T) = ∃y,w. TR(x,w,y) ∧ T(y).
func (tr *TR) PreImage(to bdd.Ref, st *ImageStats) bdd.Ref {
	m := tr.M
	tr.buildPreSchedule()
	st.Images++
	ty := m.Permute(to, tr.s2n)
	cur := m.ExistsCube(ty, tr.prePre)
	m.Deref(ty)
	for k, c := range tr.Clusters {
		next := m.AndExists(cur, c, tr.preSchedule[k])
		m.Deref(cur)
		cur = next
		st.AndExists++
	}
	if live := m.NodeCount(); live > st.PeakLiveNodes {
		st.PeakLiveNodes = live
	}
	return cur
}

// Release drops the references held by the transition relation.
func (tr *TR) Release() {
	for _, c := range tr.Clusters {
		tr.M.Deref(c)
	}
	for _, q := range tr.Schedule {
		tr.M.Deref(q)
	}
	tr.M.Deref(tr.PreCube)
	for _, q := range tr.preSchedule {
		tr.M.Deref(q)
	}
	if tr.preSchedule != nil {
		tr.M.Deref(tr.prePre)
	}
	tr.Clusters, tr.Schedule, tr.preSchedule = nil, nil, nil
}

// NumStateBits returns the number of latches.
func (tr *TR) NumStateBits() int { return len(tr.StateVars) }

// StateCount returns the number of states in a predicate over the
// present-state variables: its minterm fraction (count.Fraction) scaled
// to the state space, exact below 2^53 states.
func (tr *TR) StateCount(set bdd.Ref) float64 {
	return math.Ldexp(count.Fraction(tr.M, set), tr.NumStateBits())
}

// StateCountExact returns the exact number of states in a predicate over
// the present-state variables: the big.Int form of StateCount, errored
// when set depends on variables outside the present-state set.
func (tr *TR) StateCountExact(set bdd.Ref) (*big.Int, error) {
	return count.MintermsOver(tr.M, set, tr.StateVars)
}

// stateCountExactOrNil is the Result-construction form of
// StateCountExact: traversal sets always range over the present-state
// variables, so the error path is vestigial.
func (tr *TR) stateCountExactOrNil(set bdd.Ref) *big.Int {
	c, err := tr.StateCountExact(set)
	if err != nil {
		return nil
	}
	return c
}
