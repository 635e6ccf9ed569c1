// Package prof computes structural profiles of BDDs: per-level node counts
// (widths), per-level minterm-mass attribution and density, root→terminal
// path-length histograms, and the sharing (in-degree) distribution of the
// shared DAG.
//
// Per-level width/density profiles are the decisive structural signal for
// BDD algorithm behaviour (Sølvsten & van de Pol, arXiv:2104.12101): the
// levels where a diagram is wide and sparse are exactly where the paper's
// approximation operators cut, and where image computation allocates. A
// Profile is computed in one sweep over the DAG (the optional path
// histogram adds an O(|f|·vars) worst-case pass) and renders as a text
// table or JSON.
//
// The minterm-mass attribution follows the analysis pass of the RUA
// machinery in internal/approx/density.go: path mass flows from each root
// (1.0 per root, split in half at every node, tracking complement parity),
// and a node's mass is the fraction of the root functions' minterms whose
// paths traverse it — mass·frac(v) for even-parity arrivals plus
// mass·frac(¬v) for odd ones, the fractions read from count.Fractions.
package prof

import (
	"math"
	"math/bits"
	"sort"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

// Options tunes Compute.
type Options struct {
	// PathHist enables the root→One path-length histogram, an extra
	// O(|f|·vars) worst-case pass (the per-level sweep itself is O(|f|)).
	PathHist bool
}

// LevelStat is the profile of one variable level.
type LevelStat struct {
	Level   int     `json:"level"`   // order position
	Var     int     `json:"var"`     // variable index at that position
	Nodes   int     `json:"nodes"`   // width of the level
	InArcs  int     `json:"in_arcs"` // arcs arriving at this level's nodes (roots count 1)
	Shared  int     `json:"shared"`  // nodes with in-degree >= 2
	Mass    float64 `json:"mass"`    // minterm mass attributed to the level
	Density float64 `json:"density"` // Mass / Nodes
}

// Profile is the structural profile of a BDD forest.
type Profile struct {
	Roots       int         `json:"roots"`
	Vars        int         `json:"vars"`
	Nodes       int         `json:"nodes"` // distinct nodes incl. the terminal
	Inner       int         `json:"inner"` // Nodes - 1
	MaxWidth    int         `json:"max_width"`
	MaxWidthLev int         `json:"max_width_level"`
	RootFracs   []float64   `json:"root_minterm_fracs"` // minterm fraction per root
	Levels      []LevelStat `json:"levels"`             // non-empty levels, ascending

	// Sharing: power-of-two in-degree buckets over inner nodes; bucket i
	// counts nodes whose in-degree d satisfies 2^(i-1) <= d < 2^i.
	InDegree    []int64 `json:"in_degree_hist"`
	SharedNodes int     `json:"shared_nodes"` // inner nodes with in-degree >= 2

	// Path statistics (PathHist option): histogram of root→One path
	// lengths, indexed by length.
	PathsToOne  float64   `json:"paths_to_one,omitempty"`
	PathsToZero float64   `json:"paths_to_zero,omitempty"`
	MinPath     int       `json:"min_path,omitempty"`
	MaxPath     int       `json:"max_path,omitempty"`
	AvgPath     float64   `json:"avg_path,omitempty"`
	PathHist    []float64 `json:"path_hist,omitempty"`

	// NodeMass is the per-node minterm mass behind the level attribution,
	// keyed by node id — the signal DotColor visualizes.
	NodeMass map[uint32]float64 `json:"-"`
}

// For profiles a single function with every option enabled.
func For(m *bdd.Manager, f bdd.Ref) *Profile {
	return Compute(m, []bdd.Ref{f}, Options{PathHist: true})
}

// Compute profiles the forest rooted at roots in one sweep: collect the
// shared DAG, attribute minterm mass top-down in level order, and fold the
// per-node records into per-level statistics.
func Compute(m *bdd.Manager, roots []bdd.Ref, opts Options) *Profile {
	p := &Profile{Roots: len(roots), Vars: m.NumVars()}

	// Pass 1: collect distinct nodes and in-degrees; one count sweep
	// gives the minterm fractions.
	seen := make(map[uint32]bool)
	indeg := make(map[uint32]int)     // node id -> arcs arriving (roots count 1)
	byLevel := make(map[int][]uint32) // level -> inner node ids
	var collect func(f bdd.Ref)
	collect = func(f bdd.Ref) {
		id := f.ID()
		if seen[id] {
			return
		}
		seen[id] = true
		if f.IsConstant() {
			return
		}
		lev := m.Level(f)
		byLevel[lev] = append(byLevel[lev], id)
		hi, lo := m.StructHi(f), m.StructLo(f)
		collect(hi)
		collect(lo)
		indeg[hi.ID()]++
		indeg[lo.ID()]++
	}
	fr := count.NewFractions(m, roots...)
	for _, r := range roots {
		collect(r)
		indeg[r.ID()]++
		p.RootFracs = append(p.RootFracs, fr.Of(r))
	}
	p.Nodes = len(seen)
	p.Inner = p.Nodes
	if seen[bdd.One.ID()] {
		p.Inner--
	}

	// Pass 2: mass attribution, top-down in level order. Children always
	// sit at strictly larger levels, so an ascending sweep finalizes a
	// node's arriving mass before distributing it.
	weightE := make(map[uint32]float64) // mass arriving with even parity
	weightO := make(map[uint32]float64) // mass arriving through an odd number of complement arcs
	for _, r := range roots {
		if r.IsConstant() {
			continue
		}
		if r.IsComplement() {
			weightO[r.ID()]++
		} else {
			weightE[r.ID()]++
		}
	}
	levels := make([]int, 0, len(byLevel))
	for lev := range byLevel {
		levels = append(levels, lev)
	}
	sort.Ints(levels)
	deposit := func(c bdd.Ref, mass float64) {
		if c.IsConstant() || mass == 0 {
			return
		}
		if c.IsComplement() {
			weightO[c.ID()] += mass
		} else {
			weightE[c.ID()] += mass
		}
	}
	p.NodeMass = make(map[uint32]float64, p.Inner)
	for _, lev := range levels {
		for _, id := range byLevel[lev] {
			v := bdd.Ref(id << 1) // regular ref for this node
			var mass float64
			if we := weightE[id]; we > 0 {
				mass += we * fr.Of(v)
				deposit(m.Hi(v), we/2)
				deposit(m.Lo(v), we/2)
			}
			if wo := weightO[id]; wo > 0 {
				vc := v.Complement()
				mass += wo * fr.Of(vc)
				deposit(m.Hi(vc), wo/2)
				deposit(m.Lo(vc), wo/2)
			}
			p.NodeMass[id] = mass
		}
	}

	// Fold into per-level statistics.
	for _, lev := range levels {
		ids := byLevel[lev]
		st := LevelStat{Level: lev, Var: m.VarAtLevel(lev), Nodes: len(ids)}
		for _, id := range ids {
			st.InArcs += indeg[id]
			if indeg[id] >= 2 {
				st.Shared++
			}
			st.Mass += p.NodeMass[id]
		}
		st.Density = st.Mass / float64(st.Nodes)
		p.Levels = append(p.Levels, st)
		if st.Nodes > p.MaxWidth {
			p.MaxWidth = st.Nodes
			p.MaxWidthLev = lev
		}
		p.SharedNodes += st.Shared
	}

	// Sharing distribution over inner nodes.
	for id, d := range indeg {
		if id == bdd.One.ID() {
			continue
		}
		b := bits.Len64(uint64(d))
		for len(p.InDegree) <= b {
			p.InDegree = append(p.InDegree, 0)
		}
		p.InDegree[b]++
	}

	if opts.PathHist {
		p.computePaths(m, roots)
	}
	return p
}

// computePaths fills the root→One path-length histogram by a bottom-up DP
// on seen functions: dist(f)[k] = number of length-k paths from f to the
// One terminal, with complement parity folded into the memo key.
func (p *Profile) computePaths(m *bdd.Manager, roots []bdd.Ref) {
	memo := make(map[bdd.Ref][]float64)
	var dist func(f bdd.Ref) []float64
	dist = func(f bdd.Ref) []float64 {
		if f == bdd.One {
			return []float64{1}
		}
		if f == bdd.Zero {
			return nil
		}
		if d, ok := memo[f]; ok {
			return d
		}
		dh := dist(m.Hi(f))
		dl := dist(m.Lo(f))
		n := len(dh)
		if len(dl) > n {
			n = len(dl)
		}
		d := make([]float64, n+1)
		for i, v := range dh {
			d[i+1] += v
		}
		for i, v := range dl {
			d[i+1] += v
		}
		memo[f] = d
		return d
	}
	for _, r := range roots {
		for k, v := range dist(r) {
			for len(p.PathHist) <= k {
				p.PathHist = append(p.PathHist, 0)
			}
			p.PathHist[k] += v
		}
		p.PathsToZero += m.CountPath(r.Complement())
	}
	p.MinPath = -1
	var lenSum float64
	for k, v := range p.PathHist {
		if v == 0 {
			continue
		}
		if p.MinPath < 0 {
			p.MinPath = k
		}
		p.MaxPath = k
		p.PathsToOne += v
		lenSum += float64(k) * v
	}
	if p.MinPath < 0 {
		p.MinPath = 0
	}
	if p.PathsToOne > 0 {
		p.AvgPath = lenSum / p.PathsToOne
	}
}

// TotalNodes returns the profile's node accounting: the sum of level widths
// plus the terminal. It equals bdd.Manager.SharingSize of the roots, and —
// when the roots cover every live function of a manager — NodeCount.
func (p *Profile) TotalNodes() int {
	n := p.Nodes - p.Inner // terminal(s) covered
	for _, st := range p.Levels {
		n += st.Nodes
	}
	return n
}

// LevelNodes returns the width of the given level (0 when empty).
func (p *Profile) LevelNodes(lev int) int {
	for _, st := range p.Levels {
		if st.Level == lev {
			return st.Nodes
		}
	}
	return 0
}

// TopWidths returns the k widest levels as a compact "lev:width" list,
// widest first — the one-line shape summary attached to trace events.
func (p *Profile) TopWidths(k int) string {
	sorted := append([]LevelStat(nil), p.Levels...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Nodes != sorted[j].Nodes {
			return sorted[i].Nodes > sorted[j].Nodes
		}
		return sorted[i].Level < sorted[j].Level
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return formatLevelList(sorted[:k], func(st LevelStat) int { return st.Nodes })
}

// TopDeltas returns the k levels with the largest node-count change between
// two profiles as a signed "lev:±delta" list, largest magnitude first — the
// per-decision attribution attached to approximation spans. An empty string
// means the profiles have identical level widths.
func TopDeltas(before, after *Profile, k int) string {
	type d struct {
		lev, delta int
	}
	var ds []d
	seen := make(map[int]bool)
	for _, st := range before.Levels {
		seen[st.Level] = true
		if dd := after.LevelNodes(st.Level) - st.Nodes; dd != 0 {
			ds = append(ds, d{st.Level, dd})
		}
	}
	for _, st := range after.Levels {
		if !seen[st.Level] && st.Nodes != 0 {
			ds = append(ds, d{st.Level, st.Nodes})
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		ai, aj := abs(ds[i].delta), abs(ds[j].delta)
		if ai != aj {
			return ai > aj
		}
		return ds[i].lev < ds[j].lev
	})
	if k > len(ds) {
		k = len(ds)
	}
	out := ""
	for i := 0; i < k; i++ {
		if i > 0 {
			out += ","
		}
		out += itoa(ds[i].lev) + ":" + signedItoa(ds[i].delta)
	}
	return out
}

// DotColor returns a Graphviz fillcolor for the node with the given id,
// grading the node's minterm mass on a 9-step blues scale (dark = dense,
// pale = sparse — the pale nodes are where approximation will cut). Nodes
// outside the profile return "".
func (p *Profile) DotColor(id uint32) string {
	mass, ok := p.NodeMass[id]
	if !ok {
		return ""
	}
	// Log scale: each halving of mass steps one shade down. Mass 1 (a
	// root) is the darkest; anything below 2^-8 of the root mass is the
	// palest.
	shade := 9
	if mass <= 0 {
		shade = 1
	} else {
		down := int(-math.Log2(mass))
		if down < 0 {
			down = 0
		}
		shade -= down
		if shade < 1 {
			shade = 1
		}
	}
	return "/blues9/" + itoa(shade)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
