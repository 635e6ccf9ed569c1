// Command tables regenerates the paper's Tables 1–4.
//
// Usage:
//
//	tables -table all            # everything, test-scale corpus
//	tables -table 2 -paper       # Table 2 on the paper-scale corpus
//	tables -table 1 -budget 60s  # Table 1 with a custom per-run budget
//
// The benchmark trajectory lives in BENCH_reach.json: `tables -table 1
// -bench-save BENCH_reach.json` appends a record after a run, and `tables
// -bench-cmp BENCH_reach.json` diffs the two most recent records, exiting
// nonzero when wall time or peak live nodes regressed beyond tolerance
// (see internal/bench/history.go and `make bench-save` / `make bench-cmp`).
// Records are tagged with the worker count that produced them; after
// saving baselines at -workers 1 and -workers N, `tables -speedup
// BENCH_reach.json` reports the scaling curve (speedup, parallel
// efficiency, and the share of the perfect-scaling gap explained by
// stop-the-world time).
//
// With -obs the run serves the observability endpoint (/metrics in
// Prometheus exposition, /quality, /timeseries, /parallel) for scrapers
// and for `bddtop`. Every manager the tables build reports to the
// session, so -metrics and -trace cover the corpus build and each
// traversal's compilation as well as the approximation operators.
//
// See EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/bench"
	"bddkit/internal/cliutil"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: 1, 2, 3, 4, ablation, gauntlet, or all")
	paper := flag.Bool("paper", false, "use the paper-scale corpus and circuits (slower)")
	budget := flag.Duration("budget", 2*time.Minute, "per-traversal budget for Table 1")
	jsonOut := flag.String("json", "", "also write Table 1 rows with per-phase breakdowns as JSON to this `file` (\"-\" = stdout)")
	benchSave := flag.String("bench-save", "", "append this run's Table 1 rows to the benchmark history `file` (see `make bench-save`)")
	benchCmp := flag.String("bench-cmp", "", "compare the two most recent records of the benchmark history `file` and exit (no tables are run)")
	benchAdvisory := flag.Bool("bench-advisory", false, "with -bench-cmp or -speedup: report findings but exit 0")
	speedup := flag.String("speedup", "", "report the speedup curve (serial vs workers-tagged records) of the benchmark history `file` and exit")
	workers := flag.Int("workers", 1, "BDD engine worker goroutines (1 = serial, 0 = GOMAXPROCS)")
	var ocfg obs.Config
	ocfg.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := cliutil.Check(
		cliutil.Workers(*workers),
		cliutil.NonNegativeDuration("budget", *budget),
	); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(2)
	}
	bdd.SetDefaultWorkers(*workers)

	if *benchCmp != "" {
		os.Exit(runBenchCmp(*benchCmp, *benchAdvisory))
	}
	if *speedup != "" {
		os.Exit(runSpeedup(*speedup, *benchAdvisory))
	}

	switch *table {
	case "1", "2", "3", "4", "ablation", "gauntlet", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	if *benchSave != "" && *table != "1" && *table != "all" {
		fmt.Fprintln(os.Stderr, "-bench-save records Table 1 rows; use -table 1 (or all)")
		os.Exit(2)
	}
	sess := ocfg.MustStart()
	defer sess.Close()
	defer sess.DumpOnPanic()

	var fns []bench.Fn
	needCorpus := *table != "1" && *table != "gauntlet"
	if needCorpus {
		cfg := bench.SmallCorpus()
		if *paper {
			cfg = bench.PaperCorpus()
		}
		cfg.Observe = sess
		fmt.Fprintf(os.Stderr, "building corpus (min %d nodes)...\n", cfg.MinNodes)
		start := time.Now()
		var err error
		fns, err = bench.Build(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "corpus: %d functions in %v\n", len(fns), time.Since(start).Round(time.Millisecond))
		defer bench.Release(fns)
	}

	if *table == "1" || *table == "all" {
		cfg := bench.Table1Small()
		if *paper {
			cfg = bench.Table1Paper(*budget)
		}
		cfg.Observe = sess
		rows, err := bench.RunTable1(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("Table 1: Reachability analysis results using BDD approximations.")
		bench.PrintTable1(os.Stdout, rows)
		fmt.Println()
		if *benchSave != "" {
			suite := "table1-small"
			if *paper {
				suite = "table1-paper"
			}
			rec := bench.HistoryRecord{Suite: suite, Workers: bdd.DefaultWorkers(), Rows: rows}
			if err := bench.AppendHistory(*benchSave, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "bench-save: appended %s record (workers=%d) to %s\n",
				suite, rec.Workers, *benchSave)
		}
		if *jsonOut != "" {
			w := os.Stdout
			if *jsonOut != "-" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				defer f.Close()
				w = f
			}
			if err := bench.WriteTable1JSON(w, rows); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *table == "gauntlet" || *table == "all" {
		gcfg := bench.DefaultGauntletConfig()
		gcfg.Observe = sess
		rows, err := bench.RunGauntlet(gcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("Gauntlet: generator families, exact counts, and subset mass retention.")
		bench.PrintGauntlet(os.Stdout, rows)
		fmt.Println()
		if *jsonOut != "" && *table == "gauntlet" {
			w := os.Stdout
			if *jsonOut != "-" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				defer f.Close()
				w = f
			}
			if err := bench.WriteGauntletJSON(w, rows); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *table == "2" || *table == "all" {
		fmt.Println("Table 2: Comparison of approximation methods I: Simple methods.")
		bench.PrintApprox(os.Stdout, "simple methods", bench.Table2(fns))
		fmt.Println()
	}
	if *table == "3" || *table == "all" {
		fmt.Println("Table 3: Comparison of approximation methods II: Compound methods.")
		bench.PrintApprox(os.Stdout, "compound methods", bench.Table3(fns))
		fmt.Println()
	}
	if *table == "ablation" || *table == "all" {
		fmt.Println("Ablation A: RUA replacement types (Section 2.1.1).")
		bench.PrintApprox(os.Stdout, "replacement-type ablation", bench.AblationRUA(fns))
		fmt.Println()
		fmt.Println("Ablation B: decomposition combine-step pairing.")
		bench.PrintPairing(os.Stdout, bench.AblationDecompPairing(fns))
		fmt.Println()
		fmt.Println("Ablation C: transition-relation cluster threshold (s5378 model, 12 BFS iterations).")
		cfgC := model.S5378(model.S5378Config{Units: 5, UnitWidth: 4})
		rows, err := bench.AblationClusterSize(cfgC, []int{1, 500, 2500, 10000, 1 << 20}, 12, sess)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bench.PrintClusters(os.Stdout, rows)
		fmt.Println()
	}
	if *table == "4" || *table == "all" {
		fmt.Println("Table 4: Comparison of decomposition methods.")
		min1 := 5000
		if !*paper {
			min1 = bench.SmallCorpus().MinNodes
		}
		bench.PrintDecomp(os.Stdout, min1, bench.Table4(fns, min1))
		if *paper {
			bench.PrintDecomp(os.Stdout, bench.BigCorpusThreshold, bench.Table4(fns, bench.BigCorpusThreshold))
		}
		fmt.Println()
	}
}

// runBenchCmp implements -bench-cmp: compare the most recent history
// record against the latest earlier record of the same suite and worker
// count (serial and parallel trajectories are tracked separately — their
// peak-node profiles differ by construction) and report regressions.
// Advisory mode always exits 0 so CI can surface drift without failing on
// noisy machines.
func runBenchCmp(path string, advisory bool) int {
	h, err := bench.LoadHistory(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	prev, cur, ok := h.LatestComparable()
	if !ok {
		if cur != nil {
			fmt.Fprintf(os.Stderr, "bench-cmp: %s has no earlier record matching the latest one (suite %s, workers=%d); nothing comparable yet\n",
				path, cur.Suite, cur.Workers)
		} else {
			fmt.Fprintf(os.Stderr, "bench-cmp: %s holds %d record(s); need 2 (run `make bench-save` twice)\n",
				path, len(h.Records))
		}
		if advisory {
			return 0
		}
		return 1
	}
	n := bench.WriteComparison(os.Stdout, prev, cur)
	if n > 0 && !advisory {
		return 1
	}
	return 0
}

// runSpeedup implements -speedup: derive the scaling curve from the
// workers-tagged records of the history and fail (unless advisory) when no
// serial/parallel pair exists — a CI leg that silently compares nothing
// would report "no regressions" forever.
func runSpeedup(path string, advisory bool) int {
	h, err := bench.LoadHistory(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	points := bench.SpeedupCurves(h)
	if bench.WriteSpeedup(os.Stdout, points) == 0 && !advisory {
		return 1
	}
	return 0
}
