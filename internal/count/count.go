// Package count is bddkit's one counting engine. It counts minterms
// over the shared arena two ways and nowhere else:
//
//   - exactly, as a big.Int (#SAT safe beyond 63 variables), for
//     Minterms, MintermsOver and the uniform satisfying-assignment
//     Sampler, which walks the diagram drawing branch choices from the
//     exact subtree counts (after Clément's iterative ROBDD counting;
//     see PAPERS.md);
//   - in float64, as the probability that a function is satisfied when
//     each variable is independently true with some weight: Weighted,
//     and with every weight 1/2 the minterm fraction ‖f‖/2^n (Fraction,
//     and Fractions, its per-node form for the approximation operators
//     that rank sub-functions by density).
//
// The float sweep gives each polarity of a node its own entry,
// w·p(hi) + (1−w)·p(lo) over the complement-folded children. It never
// forms 1 − p, so a complemented function with a tiny fraction is not
// rounded to zero. Every term is non-negative, so a fraction is within
// n·2^-53 relative of the exact one over n variables, and exact while
// ‖f‖ < 2^53 and n ≤ 1022 (no fraction is then a subnormal float).
//
// Every entry point does one iterative post-order sweep over the DAG —
// no recursion, so chain-shaped BDDs of 10^5+ levels cannot overflow the
// goroutine stack.
//
// Counts are functions of the Boolean function alone: they are invariant
// under variable reordering, garbage collection and Save/Load round trips
// (the ROBDD is canonical for a fixed order). internal/oracle pins this down against closed-form
// ground truths (N-Queens solution counts and friends).
package count

import (
	"fmt"
	"math"
	"math/big"

	"bddkit/internal/bdd"
)

// levelOf returns f's level clamped to n (terminals sit below every
// variable at level n).
func levelOf(m *bdd.Manager, f bdd.Ref, n int) int {
	if l := m.Level(f); l < n {
		return l
	}
	return n
}

// sweep fills memo with the exact minterm count of every sub-function
// reachable from f, counted over the variable space strictly below the
// sub-function's own root level (so memo[One] = 1: the empty space has
// one assignment). Keys are function refs with the complement bit folded
// in; both polarities of a shared node get their own entry.
func sweep(m *bdd.Manager, f bdd.Ref, n int, memo map[bdd.Ref]*big.Int) {
	if memo[bdd.One] == nil {
		memo[bdd.One] = big.NewInt(1)
		memo[bdd.Zero] = big.NewInt(0)
	}
	if _, ok := memo[f]; ok {
		return
	}
	stack := []bdd.Ref{f}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		if _, ok := memo[r]; ok {
			stack = stack[:len(stack)-1]
			continue
		}
		hi, lo := m.Hi(r), m.Lo(r)
		ch, okH := memo[hi]
		cl, okL := memo[lo]
		if !okH {
			stack = append(stack, hi)
		}
		if !okL {
			stack = append(stack, lo)
		}
		if !okH || !okL {
			continue
		}
		stack = stack[:len(stack)-1]
		// Each branch's count is taken over the space strictly below this
		// node; levels skipped between the node and the child root are
		// free, contributing a factor of 2 apiece.
		l := levelOf(m, r, n)
		c := new(big.Int).Lsh(ch, uint(levelOf(m, hi, n)-l-1))
		t := new(big.Int).Lsh(cl, uint(levelOf(m, lo, n)-l-1))
		memo[r] = c.Add(c, t)
	}
}

// Minterms returns ‖f‖: the exact number of satisfying assignments of f
// over a space of nVars variables. When nVars exceeds the manager's
// variable count the extra variables are free; when it is smaller, every
// support variable of f must have index < nVars (counting over a space
// that does not cover the support is an error).
func Minterms(m *bdd.Manager, f bdd.Ref, nVars int) (*big.Int, error) {
	if nVars < 0 {
		return nil, fmt.Errorf("count: negative variable count %d", nVars)
	}
	n := m.NumVars()
	if nVars < n {
		for _, v := range m.SupportVars(f) {
			if v >= nVars {
				return nil, fmt.Errorf("count: support variable %d outside the %d-variable space", v, nVars)
			}
		}
	}
	memo := make(map[bdd.Ref]*big.Int)
	sweep(m, f, n, memo)
	// Levels above the root are free.
	total := new(big.Int).Lsh(memo[f], uint(levelOf(m, f, n)))
	if nVars >= n {
		total.Lsh(total, uint(nVars-n))
	} else {
		// Exact: the support check above guarantees f is independent of
		// the n-nVars dropped variables.
		total.Rsh(total, uint(n-nVars))
	}
	return total, nil
}

// MintermsOver counts f's satisfying assignments over exactly the given
// variable set (reach uses this with the present-state variables to count
// reached states exactly). The support of f must be contained in vars;
// variables in vars but not in the support are free and double the count.
func MintermsOver(m *bdd.Manager, f bdd.Ref, vars []int) (*big.Int, error) {
	n := m.NumVars()
	in := make(map[int]bool, len(vars))
	for _, v := range vars {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("count: variable %d out of range [0,%d)", v, n)
		}
		if in[v] {
			return nil, fmt.Errorf("count: duplicate variable %d", v)
		}
		in[v] = true
	}
	for _, v := range m.SupportVars(f) {
		if !in[v] {
			return nil, fmt.Errorf("count: support variable %d not in the counting set", v)
		}
	}
	c, err := Minterms(m, f, n)
	if err != nil {
		return nil, err
	}
	// f is independent of the n-len(vars) variables outside the set, so
	// the division is exact.
	return c.Rsh(c, uint(n-len(vars))), nil
}

// fsweep fills memo with the probability that each function reachable
// from f is satisfied when every variable v is independently true with
// probability weight(v), or 1/2 when weight is nil (the minterm
// fraction). Keys are function refs with the complement bit folded in,
// as in sweep: the two polarities of a shared node are two entries, each
// summed from its own children, never one entry and its complement
// 1 − p. Variables skipped between a node and a child integrate out
// (w·p + (1−w)·p = p), so no level correction is needed.
func fsweep(m *bdd.Manager, f bdd.Ref, weight func(v int) float64, memo map[bdd.Ref]float64) {
	if _, ok := memo[bdd.One]; !ok {
		memo[bdd.One] = 1
		memo[bdd.Zero] = 0
	}
	if _, ok := memo[f]; ok {
		return
	}
	stack := []bdd.Ref{f}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		if _, ok := memo[r]; ok {
			stack = stack[:len(stack)-1]
			continue
		}
		hi, lo := m.Hi(r), m.Lo(r)
		ph, okH := memo[hi]
		pl, okL := memo[lo]
		if !okH {
			stack = append(stack, hi)
		}
		if !okL {
			stack = append(stack, lo)
		}
		if !okH || !okL {
			continue
		}
		stack = stack[:len(stack)-1]
		w := 0.5
		if weight != nil {
			w = weight(m.Var(r))
		}
		memo[r] = w*ph + (1-w)*pl
	}
}

// Fraction returns ‖f‖/2^n, the fraction of the manager's variable space
// on which f is 1.
func Fraction(m *bdd.Manager, f bdd.Ref) float64 {
	return NewFractions(m, f).Of(f)
}

// Fractions is the per-node form of Fraction: the minterm fraction of
// every function reachable from a root, filled by one sweep so that an
// operator which ranks sub-functions (the approximations' analysis pass,
// heavy-branch subsetting) reads each one by lookup. Of extends the
// table by a further sweep when asked about a function outside it.
//
// Entries are keyed by node identity, so a table must be discarded after
// the order changes, and it describes only functions kept alive while it
// is in use. It is not safe for concurrent use.
type Fractions struct {
	m    *bdd.Manager
	memo map[bdd.Ref]float64
}

// NewFractions sweeps each root once.
func NewFractions(m *bdd.Manager, roots ...bdd.Ref) *Fractions {
	t := &Fractions{m: m, memo: make(map[bdd.Ref]float64)}
	for _, f := range roots {
		t.Of(f)
	}
	return t
}

// Of returns ‖g‖/2^n.
func (t *Fractions) Of(g bdd.Ref) float64 {
	if p, ok := t.memo[g]; ok {
		return p
	}
	fsweep(t.m, g, nil, t.memo)
	return t.memo[g]
}

// Weighted returns the probability that f is satisfied when each variable
// v is independently true with probability weight(v). Weights are clamped
// to [0,1]. With all weights 1/2 this equals the minterm fraction.
func Weighted(m *bdd.Manager, f bdd.Ref, weight func(v int) float64) float64 {
	clamped := func(v int) float64 {
		return math.Min(1, math.Max(0, weight(v)))
	}
	memo := make(map[bdd.Ref]float64)
	fsweep(m, f, clamped, memo)
	return memo[f]
}
