package oracle

import (
	"bytes"
	"fmt"
	"math"
	"math/big"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
)

// Closed-form checkers for the gauntlet generator families: every family
// in internal/model/gauntlet has an independently computable exact answer
// (a published sequence, explicit DFS/simulation enumeration, or plain
// integer arithmetic), which turns exact counting and uniform sampling
// into end-to-end-verifiable operations rather than trusted ones.

// QueensCounts is the number of solutions to the n-queens problem,
// indexed by n (OEIS A000170; index 0 is the empty board's single
// solution).
var QueensCounts = []int64{1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724}

// ExpectedCount returns the instance's ground-truth solution count when
// one is computable without BDDs: the published sequence for queens,
// explicit DFS for Hamiltonian cycles, brute-force simulation for life
// boards up to 16 cells, and closed-form arithmetic for the adder miter
// up to width 10. The second result is false when no independent ground
// truth is in range.
func ExpectedCount(p gauntlet.Params) (*big.Int, bool) {
	if p.Validate() != nil {
		return nil, false
	}
	switch p.Family {
	case gauntlet.FamilyQueens:
		if p.N < len(QueensCounts) {
			return big.NewInt(QueensCounts[p.N]), true
		}
	case gauntlet.FamilyLife:
		cells := p.Rows * p.Cols
		if cells > 16 {
			return nil, false
		}
		target := p.Target
		if target == nil {
			target = gauntlet.DefaultLifeTarget(p.Rows, p.Cols)
		}
		var n int64
		board := make([]bool, cells)
		for bits := 0; bits < 1<<uint(cells); bits++ {
			for i := range board {
				board[i] = bits&(1<<uint(i)) != 0
			}
			next := gauntlet.LifeStep(p.Rows, p.Cols, board)
			match := true
			for i := range next {
				if next[i] != target[i] {
					match = false
					break
				}
			}
			if match {
				n++
			}
		}
		return big.NewInt(n), true
	case gauntlet.FamilyHamiltonGrid:
		return big.NewInt(gauntlet.GridGraph(p.Rows, p.Cols).CountHamiltonianCycles()), true
	case gauntlet.FamilyHamiltonKnight:
		return big.NewInt(gauntlet.KnightGraph(p.Rows, p.Cols).CountHamiltonianCycles()), true
	case gauntlet.FamilyEquivAdder:
		if p.N > 10 { // 2^(2n) enumeration
			return nil, false
		}
		return big.NewInt(gauntlet.DistinguishingCount(p.N, p.Fault)), true
	}
	return nil, false
}

// CheckQueensSequence builds the n-queens function for every n in
// [1, maxN], counts it exactly, and compares against the published
// sequence; boards small enough for exhaustive evaluation (n*n <=
// MaxExhaustiveVars) are additionally counted by truth-table enumeration
// through the oracle's independent evaluator.
func CheckQueensSequence(maxN int) error {
	if maxN >= len(QueensCounts) {
		return fmt.Errorf("oracle: no published count for queens%d", maxN)
	}
	for n := 1; n <= maxN; n++ {
		p := gauntlet.Params{Family: gauntlet.FamilyQueens, N: n}
		m, f, err := gauntlet.New(p, nil)
		if err != nil {
			return err
		}
		c, err := count.Minterms(m, f, p.Vars())
		if err != nil {
			return fmt.Errorf("queens%d: %v", n, err)
		}
		if c.Int64() != QueensCounts[n] {
			return fmt.Errorf("queens%d: counted %v, published %d", n, c, QueensCounts[n])
		}
		if vars := p.Vars(); vars <= MaxExhaustiveVars {
			var brute int64
			a := make([]bool, vars)
			for bits := 0; bits < 1<<uint(vars); bits++ {
				for v := 0; v < vars; v++ {
					a[v] = bits&(1<<uint(v)) != 0
				}
				if Eval(m, f, a) {
					brute++
				}
			}
			if brute != QueensCounts[n] {
				return fmt.Errorf("queens%d: truth table counts %d, published %d", n, brute, QueensCounts[n])
			}
		}
		m.Deref(f)
		if err := m.DebugCheck(); err != nil {
			return fmt.Errorf("queens%d: %v", n, err)
		}
	}
	return nil
}

// EnumerateMinterms expands f's cube cover into explicit minterms over
// nVars variables (nVars must not be below the manager's variable count).
// Enumeration aborts with an error beyond max minterms — it exists to
// index the small solution sets the uniformity check bins samples into.
func EnumerateMinterms(m *bdd.Manager, f bdd.Ref, nVars, max int) ([][]bool, error) {
	n := m.NumVars()
	if nVars < n {
		return nil, fmt.Errorf("oracle: minterm space %d below the manager's %d variables", nVars, n)
	}
	var out [][]bool
	overflow := false
	m.ForEachCube(f, func(cube []int8) bool {
		// Expand don't-cares (including the nVars-n free tail).
		free := make([]int, 0, nVars)
		base := make([]bool, nVars)
		for v := 0; v < nVars; v++ {
			switch {
			case v >= n || cube[v] == bdd.LitDontCare:
				free = append(free, v)
			case cube[v] == bdd.LitPos:
				base[v] = true
			}
		}
		if len(free) > 20 || len(out)+(1<<uint(len(free))) > max {
			overflow = true
			return false
		}
		for bits := 0; bits < 1<<uint(len(free)); bits++ {
			a := make([]bool, nVars)
			copy(a, base)
			for i, v := range free {
				a[v] = bits&(1<<uint(i)) != 0
			}
			out = append(out, a)
		}
		return true
	})
	if overflow {
		return nil, fmt.Errorf("oracle: function has more than %d minterms", max)
	}
	return out, nil
}

// chiSquaredCritical approximates the upper-tail critical value of the
// chi-squared distribution with df degrees of freedom at significance
// p = 0.01, via the Wilson–Hilferty cube transformation (accurate to a
// fraction of a percent for df >= 1).
func chiSquaredCritical(df int) float64 {
	const z99 = 2.326348 // Φ⁻¹(0.99)
	d := float64(df)
	t := 1 - 2/(9*d) + z99*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// CheckSamplerUniform draws the given number of samples from a fresh
// fixed-seed Sampler over f and performs a Pearson chi-squared test
// against the uniform distribution over f's minterms at significance
// 0.01. Every sample must satisfy f; the solution set must have between
// 2 and 512 minterms (enumeration-indexed binning).
func CheckSamplerUniform(m *bdd.Manager, f bdd.Ref, nVars, samples int, seed int64) error {
	sols, err := EnumerateMinterms(m, f, nVars, 512)
	if err != nil {
		return err
	}
	if len(sols) < 2 {
		return fmt.Errorf("oracle: uniformity needs >= 2 solutions, have %d", len(sols))
	}
	index := make(map[string]int, len(sols))
	key := func(a []bool) string {
		b := make([]byte, len(a))
		for i, bit := range a {
			if bit {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}
	for i, a := range sols {
		index[key(a)] = i
	}
	s, err := count.NewSampler(m, f, nVars, seed)
	if err != nil {
		return err
	}
	if s.Count().Cmp(big.NewInt(int64(len(sols)))) != 0 {
		return fmt.Errorf("oracle: count %v disagrees with %d enumerated minterms", s.Count(), len(sols))
	}
	obs := make([]int, len(sols))
	for i := 0; i < samples; i++ {
		a := s.Sample()
		if !Eval(m, f, a) {
			return fmt.Errorf("oracle: sample %d does not satisfy the function", i)
		}
		j, ok := index[key(a)]
		if !ok {
			return fmt.Errorf("oracle: sample %d is not an enumerated minterm", i)
		}
		obs[j]++
	}
	expected := float64(samples) / float64(len(sols))
	var chi2 float64
	for _, o := range obs {
		d := float64(o) - expected
		chi2 += d * d / expected
	}
	if crit := chiSquaredCritical(len(sols) - 1); chi2 > crit {
		return fmt.Errorf("oracle: chi-squared %.2f exceeds the p=0.01 critical value %.2f over %d cells (non-uniform sampling)", chi2, crit, len(sols))
	}
	return nil
}

// CheckCountInvariance pins down that the exact count is a function of
// the Boolean function alone: building the instance on a default manager
// and on one whose small arena and cache force collections, growth and
// evictions, sifting to a reversed variable order, garbage-collecting,
// and a Save/Load round trip into a fresh manager must all report the
// bit-identical count — which must also equal the family's
// independent ground truth when one is in range.
func CheckCountInvariance(p gauntlet.Params) error {
	m, f, err := gauntlet.New(p, nil)
	if err != nil {
		return err
	}
	name := p.Name()
	base, err := count.Minterms(m, f, p.Vars())
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if want, ok := ExpectedCount(p); ok && base.Cmp(want) != 0 {
		return fmt.Errorf("%s: counted %v, ground truth %v", name, base, want)
	}

	check := func(stage string, c *big.Int, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %s: %v", name, stage, err)
		}
		if c.Cmp(base) != 0 {
			return fmt.Errorf("%s: count drifted after %s: %v -> %v", name, stage, base, c)
		}
		return nil
	}

	// Reorder to the reversed order, then collect garbage.
	if n := m.NumVars(); n > 1 {
		if err := m.SetOrder(reverseOrder(n)); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	c, err := count.Minterms(m, f, p.Vars())
	if err := check("reorder", c, err); err != nil {
		return err
	}
	m.GarbageCollect()
	c, err = count.Minterms(m, f, p.Vars())
	if err := check("GC", c, err); err != nil {
		return err
	}

	// Save/Load round trip into a fresh manager on the original order.
	var buf bytes.Buffer
	if err := m.Save(&buf, []string{"f"}, []bdd.Ref{f}); err != nil {
		return fmt.Errorf("%s: save: %v", name, err)
	}
	m2 := bdd.New(m.NumVars())
	loaded, err := m2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("%s: load: %v", name, err)
	}
	c, err = count.Minterms(m2, loaded["f"], p.Vars())
	if err := check("save/load", c, err); err != nil {
		return err
	}
	m2.Deref(loaded["f"])
	m.Deref(f)
	if err := m.DebugCheck(); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}

	// Rebuild on a manager with a small arena and cache.
	ms := bdd.NewWithConfig(p.Vars(), bdd.Config{InitialNodes: 64})
	fs, err := gauntlet.Build(ms, p)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	c, err = count.Minterms(ms, fs, p.Vars())
	if err := check("small-manager rebuild", c, err); err != nil {
		return err
	}
	ms.Deref(fs)
	return ms.DebugCheck()
}
