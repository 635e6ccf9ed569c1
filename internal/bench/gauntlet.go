package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"time"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
)

// ---------------------------------------------------------------------------
// Gauntlet report: per-family exact counts and approximation loss.
// ---------------------------------------------------------------------------

// GauntletRow is one generator family instance scored end to end: the
// exact solution count (as a decimal string — queens10 already busts
// float64 exactness budgets on bigger boards, and the hamilton encoding
// runs over 144 variables), and how much of that solution mass the two
// Table 1 subset operators retain at the configured threshold. MassRUA
// and MassSP are exact ratios computed from big.Int counts, not the
// float64 estimates the quality ledger carries.
type GauntletRow struct {
	Name  string `json:"name"`
	Vars  int    `json:"vars"`
	Nodes int    `json:"nodes"`
	Count string `json:"count"`

	BuildTime time.Duration `json:"build_ns"`
	CountTime time.Duration `json:"count_ns"`

	RUANodes int     `json:"rua_nodes"`
	MassRUA  float64 `json:"mass_rua"`
	SPNodes  int     `json:"sp_nodes"`
	MassSP   float64 `json:"mass_sp"`
}

// GauntletConfig sizes the per-family report run.
type GauntletConfig struct {
	Instances []gauntlet.Params

	// Threshold caps the approximated DAG size; 0 derives a per-instance
	// threshold of half the function's node count (so every instance
	// actually loses something and the mass columns are informative).
	Threshold int

	// Quality is the RUA quality factor (Table 2 uses 1.0).
	Quality float64

	// Observe watches each instance's manager, as in Table1Config.
	Observe *obs.Session
}

// DefaultGauntletConfig runs every small instance at derived thresholds.
func DefaultGauntletConfig() GauntletConfig {
	return GauntletConfig{Instances: gauntlet.SmallInstances(), Quality: 1.0}
}

// RunGauntlet builds each instance on a fresh manager, counts it exactly,
// applies RUA and SP at the configured threshold, and reports the exact
// solution mass each approximation retains.
func RunGauntlet(cfg GauntletConfig) ([]GauntletRow, error) {
	var rows []GauntletRow
	for _, p := range cfg.Instances {
		start := time.Now()
		m, f, err := gauntlet.New(p, cfg.Observe.Observer())
		if err != nil {
			return nil, err
		}
		cfg.Observe.ObserveManager(m)
		row := GauntletRow{
			Name:      p.Name(),
			Vars:      p.Vars(),
			Nodes:     m.DagSize(f),
			BuildTime: time.Since(start),
		}

		start = time.Now()
		total, err := count.Minterms(m, f, p.Vars())
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name(), err)
		}
		row.CountTime = time.Since(start)
		row.Count = total.String()

		th := cfg.Threshold
		if th == 0 {
			th = row.Nodes / 2
		}
		rua := approx.RemapUnderApprox(m, f, th, cfg.Quality)
		sp := approx.ShortPaths(m, f, th)
		row.RUANodes = m.DagSize(rua)
		row.SPNodes = m.DagSize(sp)
		if row.MassRUA, err = massRatio(m, rua, p.Vars(), total); err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name(), err)
		}
		if row.MassSP, err = massRatio(m, sp, p.Vars(), total); err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name(), err)
		}
		m.Deref(rua)
		m.Deref(sp)
		m.Deref(f)
		rows = append(rows, row)
	}
	return rows, nil
}

// massRatio returns ‖sub‖/total exactly (1 when the function was empty to
// begin with: an under-approximation of nothing loses nothing).
func massRatio(m *bdd.Manager, sub bdd.Ref, nVars int, total *big.Int) (float64, error) {
	if total.Sign() == 0 {
		return 1, nil
	}
	c, err := count.Minterms(m, sub, nVars)
	if err != nil {
		return 0, err
	}
	r, _ := new(big.Float).Quo(new(big.Float).SetInt(c), new(big.Float).SetInt(total)).Float64()
	return r, nil
}

// WriteGauntletJSON writes the report in the BENCH_*.json house format.
func WriteGauntletJSON(w io.Writer, rows []GauntletRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Table string        `json:"table"`
		Rows  []GauntletRow `json:"rows"`
	}{Table: "gauntlet", Rows: rows})
}

// PrintGauntlet renders the report as a text table.
func PrintGauntlet(w io.Writer, rows []GauntletRow) {
	fmt.Fprintf(w, "%-22s %6s %8s %14s %9s %9s %9s %9s\n",
		"instance", "vars", "nodes", "count", "ruaN", "ruaMass", "spN", "spMass")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6d %8d %14s %9d %9.4f %9d %9.4f\n",
			r.Name, r.Vars, r.Nodes, r.Count, r.RUANodes, r.MassRUA, r.SPNodes, r.MassSP)
	}
}
