package bench

import (
	"fmt"
	"io"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/decomp"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

// Ablation studies for the design choices DESIGN.md calls out: RUA's three
// replacement types (Section 2.1.1 of the paper) and the decomposition
// combine step's balance-driven pairing.

// AblationRUA compares RUA variants with replacement types disabled. Each
// row reports the geometric-mean density over the corpus; the full
// algorithm should dominate, and the drop per disabled transformation
// quantifies that transformation's contribution.
func AblationRUA(fns []Fn) ApproxResult {
	variants := []struct {
		name string
		cfg  approx.RemapConfig
	}{
		{"RUA (full)", approx.RemapConfig{}},
		{"no-remap", approx.RemapConfig{DisableRemap: true}},
		{"no-grandchild", approx.RemapConfig{DisableGrandchild: true}},
		{"zero-only", approx.RemapConfig{DisableRemap: true, DisableGrandchild: true}},
	}
	methods := make([]string, len(variants))
	for i, v := range variants {
		methods[i] = v.name
	}
	return approxTable(fns, methods, func(m *bdd.Manager, f bdd.Ref) []bdd.Ref {
		out := make([]bdd.Ref, len(variants))
		for i, v := range variants {
			out[i] = approx.RemapUnderApproxConfig(m, f, 0, 1.0, v.cfg)
		}
		return out
	})
}

// AblationPairing compares the balanced combine step of the generic
// decomposition against always-straight pairing, on Band points. The
// score is the size of the larger factor (smaller is better).
type PairingRow struct {
	Method string
	G, H   float64
	Larger float64
	Wins   int
	Ties   int
}

// AblationDecompPairing runs the pairing ablation over the corpus.
func AblationDecompPairing(fns []Fn) []PairingRow {
	names := []string{"straight", "skew-balanced"}
	gs := make([][]float64, 2)
	hs := make([][]float64, 2)
	larger := make([][]float64, 2)
	for i := range gs {
		gs[i] = make([]float64, len(fns))
		hs[i] = make([]float64, len(fns))
		larger[i] = make([]float64, len(fns))
	}
	for c, fn := range fns {
		m := fn.M
		pts := decomp.BandPoints(m, fn.F, decomp.DefaultBandConfig())
		pairs := []decomp.Pair{
			decomp.DecomposeConfig(m, fn.F, pts, decomp.Config{}),
			decomp.DecomposeConfig(m, fn.F, pts, decomp.Config{SkewBalancing: true}),
		}
		for i, p := range pairs {
			gs[i][c] = float64(m.DagSize(p.G))
			hs[i][c] = float64(m.DagSize(p.H))
			larger[i][c] = gs[i][c]
			if hs[i][c] > larger[i][c] {
				larger[i][c] = hs[i][c]
			}
			p.Deref(m)
		}
	}
	wins, ties := WinsTies(LowerIsBetter(larger))
	rows := make([]PairingRow, 2)
	for i, name := range names {
		rows[i] = PairingRow{
			Method: name,
			G:      GeoMean(gs[i]),
			H:      GeoMean(hs[i]),
			Larger: GeoMean(larger[i]),
			Wins:   wins[i],
			Ties:   ties[i],
		}
	}
	return rows
}

// ClusterRow is one row of the transition-relation clustering ablation.
type ClusterRow struct {
	ClusterSize int
	Clusters    int
	ImageTime   time.Duration
	PeakProduct int
}

// AblationClusterSize measures image-computation cost across
// transition-relation cluster thresholds on one model — the partitioned-TR
// design choice of Burch–Clarke–Long that the reachability engine builds
// on. The workload is a fixed number of BFS iterations from the initial
// state, on managers that report to sess (nil = unobserved).
func AblationClusterSize(nl *circuit.Netlist, sizes []int, iterations int, sess *obs.Session) ([]ClusterRow, error) {
	var rows []ClusterRow
	for _, cs := range sizes {
		c, err := circuit.Compile(nl, circuit.CompileOptions{BDDConfig: &bdd.Config{Observer: sess.Observer()}})
		if err != nil {
			return nil, err
		}
		tr, err := reach.NewTR(c, reach.TROptions{ClusterSize: cs})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := tr.BFS(c.Init, reach.Options{MaxIterations: iterations})
		rows = append(rows, ClusterRow{
			ClusterSize: cs,
			Clusters:    len(tr.Clusters),
			ImageTime:   time.Since(start),
			PeakProduct: res.Stats.PeakProduct,
		})
		c.M.Deref(res.Reached)
		tr.Release()
		c.Release()
	}
	return rows, nil
}

// PrintClusters writes the clustering-ablation rows.
func PrintClusters(w io.Writer, rows []ClusterRow) {
	fmt.Fprintf(w, "%-12s %9s %12s %13s\n", "ClusterSize", "clusters", "time", "peak product")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %9d %12s %13d\n",
			r.ClusterSize, r.Clusters, r.ImageTime.Round(time.Millisecond), r.PeakProduct)
	}
}

// PrintPairing writes the pairing-ablation rows.
func PrintPairing(w io.Writer, rows []PairingRow) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %6s %6s\n", "Pairing", "G", "H", "max(G,H)", "wins", "ties")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %12.1f %6d %6d\n", r.Method, r.G, r.H, r.Larger, r.Wins, r.Ties)
	}
}
