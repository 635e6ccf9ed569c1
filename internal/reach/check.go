package reach

import (
	"fmt"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
)

// Analyzer couples a compiled circuit with its transition relation and
// provides the model-checking entry points built on reachability: invariant
// checking with counterexample extraction. This is the verification
// workload that motivates the paper's approximation algorithms.
type Analyzer struct {
	C  *circuit.Compiled
	TR *TR
}

// NewAnalyzer builds the transition relation for a compiled circuit.
func NewAnalyzer(c *circuit.Compiled, opts TROptions) (*Analyzer, error) {
	tr, err := NewTR(c, opts)
	if err != nil {
		return nil, err
	}
	return &Analyzer{C: c, TR: tr}, nil
}

// Release frees the transition relation (the compiled circuit is owned by
// the caller).
func (a *Analyzer) Release() { a.TR.Release() }

// Counterexample is a concrete trace from the initial state to a state
// violating the invariant: States[0] is initial, States[len-1] is bad, and
// Inputs[i] drives the step from States[i] to States[i+1].
type Counterexample struct {
	States [][]bool
	Inputs [][]bool
}

// Len returns the number of steps in the trace.
func (c *Counterexample) Len() int { return len(c.Inputs) }

// CheckInvariant checks whether bad (a predicate over the present-state
// variables) is reachable from the circuit's initial state. It returns a
// nil counterexample when the invariant ¬bad holds on all reachable
// states; otherwise it returns a minimal-length concrete trace. The
// traversal result (reached set and statistics) is returned either way;
// the caller owns res.Reached.
//
// The search is breadth-first with onion rings so the returned trace is
// shortest; an incomplete traversal (budget) with no violation found
// returns (nil, res) with res.Completed == false, meaning "unknown".
func (a *Analyzer) CheckInvariant(bad bdd.Ref, opts Options) (cex *Counterexample, res Result, err error) {
	m := a.C.M
	tr := a.TR
	// Onion rings: rings[i] = states first reached at distance i.
	rings := []bdd.Ref{m.Ref(a.C.Init)}
	defer func() {
		for _, r := range rings {
			m.Deref(r)
		}
	}()
	res = tr.traverse("", a.C.Init, opts, func(tv *traversal) bool {
		hitRing := -1
		x := m.And(a.C.Init, bad)
		if x != bdd.Zero {
			hitRing = 0
		}
		m.Deref(x)
		for hitRing < 0 {
			img := tr.Image(rings[len(rings)-1], nil, &tv.st)
			fresh := m.Diff(img, tv.reached)
			m.Deref(img)
			if fresh == bdd.Zero {
				return true
			}
			nr := m.Or(tv.reached, fresh)
			m.Deref(tv.reached)
			tv.reached = nr
			rings = append(rings, fresh)
			tv.iters = len(rings) - 1
			x := m.And(fresh, bad)
			if x != bdd.Zero {
				hitRing = len(rings) - 1
			}
			m.Deref(x)
			if hitRing < 0 && opts.MaxIterations > 0 && len(rings) > opts.MaxIterations {
				return false
			}
		}
		// The trace runs under the budget too: an abort while extracting
		// it leaves the answer unknown.
		cex, err = a.trace(rings, hitRing, bad)
		return true
	})
	if !res.Completed {
		// Budget spent (or an iteration bound hit) with no violation
		// proven: the answer is unknown.
		return nil, res, nil
	}
	if err != nil {
		return nil, res, err
	}
	return cex, res, nil
}

// trace extracts a concrete shortest trace ending in bad ∧ rings[k],
// stepping backwards with the next-state functions.
func (a *Analyzer) trace(rings []bdd.Ref, k int, bad bdd.Ref) (*Counterexample, error) {
	m := a.C.M
	goal := m.And(rings[k], bad)
	if goal == bdd.Zero {
		m.Deref(goal)
		return nil, fmt.Errorf("reach: internal error: empty goal ring")
	}
	states := make([][]bool, k+1)
	inputs := make([][]bool, k)
	cur := pickState(a.C, goal) // concrete bad state
	m.Deref(goal)
	states[k] = cur
	for i := k - 1; i >= 0; i-- {
		// pred(x, w) = ring_i(x) ∧ ⋀_j (δ_j(x,w) ≡ cur_j)
		pred := m.Ref(rings[i])
		for j, delta := range a.C.Next {
			lit := delta
			if !cur[j] {
				lit = delta.Complement()
			}
			np := m.And(pred, lit)
			m.Deref(pred)
			pred = np
			if pred == bdd.Zero {
				break
			}
		}
		if pred == bdd.Zero {
			m.Deref(pred)
			return nil, fmt.Errorf("reach: trace reconstruction failed at ring %d", i)
		}
		assignment := m.PickOneMinterm(pred, m.NumVars())
		m.Deref(pred)
		states[i] = make([]bool, len(a.C.StateVars))
		for j, v := range a.C.StateVars {
			states[i][j] = assignment[v]
		}
		inputs[i] = make([]bool, len(a.C.InputVars))
		for j, v := range a.C.InputVars {
			inputs[i][j] = assignment[v]
		}
		cur = states[i]
	}
	return &Counterexample{States: states, Inputs: inputs}, nil
}

// pickState extracts a concrete state from a predicate over state vars.
func pickState(c *circuit.Compiled, set bdd.Ref) []bool {
	assignment := c.M.PickOneMinterm(set, c.M.NumVars())
	out := make([]bool, len(c.StateVars))
	for j, v := range c.StateVars {
		out[j] = assignment[v]
	}
	return out
}
