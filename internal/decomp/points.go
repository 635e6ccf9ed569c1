package decomp

import (
	"sort"

	"bddkit/internal/bdd"
	"bddkit/internal/obs"
)

// Decomposition-point selection heuristics (Section 3, "Decomposition
// Points").

// BandConfig parameterizes Band: nodes whose distance from the constant
// falls within [Low·D, High·D], where D is the root's distance, become
// decomposition points. The paper motivates a "middle band": low enough to
// shrink the factors substantially, high enough not to destroy the
// recombination when the factors are rebuilt.
type BandConfig struct {
	Low, High float64
}

// DefaultBandConfig centers the band just below the middle of the BDD.
func DefaultBandConfig() BandConfig { return BandConfig{Low: 0.35, High: 0.6} }

// BandPoints selects decomposition points by distance from the constant
// (one bottom-up pass of the BDD, as in the paper).
func BandPoints(m *bdd.Manager, f bdd.Ref, cfg BandConfig) Points {
	if cfg.High <= 0 {
		cfg = DefaultBandConfig()
	}
	var sp *obs.Span
	if t := obs.Of(m).Tracer(); t.Enabled() {
		sp = t.Begin("decomp.band_points",
			obs.Int("size", m.DagSize(f)),
			obs.F64("low", cfg.Low), obs.F64("high", cfg.High))
	}
	dist := make(map[uint32]int)
	var depth func(r bdd.Ref) int
	depth = func(r bdd.Ref) int {
		if r.IsConstant() {
			return 0
		}
		if d, ok := dist[r.ID()]; ok {
			return d
		}
		dh := depth(m.StructHi(r))
		dl := depth(m.StructLo(r))
		d := dh
		if dl < d {
			d = dl
		}
		d++
		dist[r.ID()] = d
		return d
	}
	rootD := depth(f)
	lo := int(cfg.Low * float64(rootD))
	hi := int(cfg.High * float64(rootD))
	if hi < 1 {
		hi = 1
	}
	if lo < 1 {
		lo = 1
	}
	pts := make(Points)
	for id, d := range dist {
		if d >= lo && d <= hi {
			pts[id] = true
		}
	}
	if sp != nil {
		sp.End(obs.Int("points", len(pts)), obs.Int("root_depth", rootD))
	}
	return pts
}

// DisjointConfig parameterizes Disjoint point selection.
type DisjointConfig struct {
	// MaxCandidates bounds how many nodes are sampled for the (per-node
	// linear, hence globally quadratic) sharing measure; the paper notes
	// that in practice only a fraction of the nodes are sampled.
	MaxCandidates int
	// MaxPoints is the number of best-scoring nodes kept as
	// decomposition points.
	MaxPoints int
	// MinSubtree skips nodes whose children's subtrees are too small to
	// be worth cutting.
	MinSubtree int
}

// DefaultDisjointConfig returns the settings used by the Table 4
// experiments.
func DefaultDisjointConfig() DisjointConfig {
	return DisjointConfig{MaxCandidates: 256, MaxPoints: 12, MinSubtree: 8}
}

// DisjointPoints selects as decomposition points the nodes whose children
// are balanced in size and share little structure: cutting there shrinks
// the individual factors maximally while keeping the shared size small.
// Candidates are scored by balance × (1 − sharing) × cut mass, and the
// best MaxPoints survive; per the paper, measuring one candidate costs a
// pass of the BDD, so only a sample of the nodes is examined.
func DisjointPoints(m *bdd.Manager, f bdd.Ref, cfg DisjointConfig) Points {
	if cfg.MaxCandidates == 0 {
		cfg = DefaultDisjointConfig()
	}
	total := m.DagSize(f)
	var sp *obs.Span
	if t := obs.Of(m).Tracer(); t.Enabled() {
		sp = t.Begin("decomp.disjoint_points",
			obs.Int("size", total),
			obs.Int("max_candidates", cfg.MaxCandidates))
	}
	// Sample nodes breadth-first so cuts land in the upper-middle of the
	// BDD, where they split real mass.
	var order []bdd.Ref
	seen := m.NewMarks()
	if !f.IsConstant() {
		seen.Mark(f)
		order = append(order, f.Regular())
	}
	for i := 0; i < len(order); i++ {
		r := order[i]
		for _, c := range [2]bdd.Ref{m.StructHi(r), m.StructLo(r)} {
			if !c.IsConstant() && seen.Mark(c) {
				order = append(order, c.Regular())
			}
		}
	}
	seen.Release()

	type scored struct {
		id    uint32
		score float64
	}
	var best []scored
	sampled := 0
	for _, r := range order {
		if sampled >= cfg.MaxCandidates {
			break
		}
		hi, lo := m.StructHi(r), m.StructLo(r)
		if hi.IsConstant() || lo.IsConstant() {
			continue
		}
		sampled++
		szHi := m.DagSize(hi)
		szLo := m.DagSize(lo)
		small, big := szHi, szLo
		if small > big {
			small, big = big, small
		}
		if small < cfg.MinSubtree {
			continue
		}
		union := m.SharingSize([]bdd.Ref{hi, lo})
		shared := szHi + szLo - union
		balance := float64(small) / float64(big)
		disjointness := 1 - float64(shared)/float64(small)
		if disjointness < 0 {
			disjointness = 0
		}
		// Cut mass: prefer cuts whose subtree is a substantial (but not
		// dominating) part of the whole BDD.
		mass := float64(union) / float64(total)
		if mass > 0.75 {
			mass = 1.5 - mass // penalize near-root cuts
		}
		best = append(best, scored{r.ID(), balance * disjointness * mass})
	}
	sort.Slice(best, func(i, j int) bool { return best[i].score > best[j].score })
	pts := make(Points)
	max := cfg.MaxPoints
	if max <= 0 {
		max = 12
	}
	for i := 0; i < len(best) && i < max; i++ {
		if best[i].score <= 0 && len(pts) > 0 {
			break
		}
		pts[best[i].id] = true
	}
	if sp != nil {
		sp.End(obs.Int("points", len(pts)), obs.Int("sampled", sampled))
	}
	return pts
}
