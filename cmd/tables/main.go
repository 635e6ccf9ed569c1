// Command tables regenerates the paper's Tables 1–4.
//
// Usage:
//
//	tables -table all                   # everything, test-scale corpus
//	tables -table 2 -paper              # Table 2 on the paper-scale corpus
//	tables -table 1 -paper -budget 60s  # Table 1 with a custom per-run budget
//	tables -table 1 -workers 2 -json -  # per-method times and STW as JSON
//
// The benchmark that gates performance is perfbench (see BENCHMARK.json);
// -json and -workers are enough for a by-hand scaling comparison.
//
// With -obs the run serves the observability endpoint (/metrics in
// Prometheus exposition, /quality, /parallel) for scrapers
// and for `bddtop`. Every manager the tables build reports to the
// session, so -metrics and -trace cover the corpus build and each
// traversal's compilation as well as the approximation operators.
//
// See EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	budget := flag.Duration("budget", 2*time.Minute, "per-traversal budget for Table 1 with -paper")
	jsonOut := flag.String("json", "", "also write Table 1's rows with per-phase breakdowns (with -table gauntlet, the gauntlet's rows) as JSON to this `file` (\"-\" = stdout)")
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

	switch *table {
	case "1", "2", "3", "4", "ablation", "gauntlet", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	if *jsonOut != "" && *table != "1" && *table != "all" && *table != "gauntlet" {
		fmt.Fprintf(os.Stderr, "-json writes Table 1 or gauntlet rows; table %q has no JSON form\n", *table)
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
		if *jsonOut != "" {
			writeJSON(*jsonOut, func(w io.Writer) error { return bench.WriteTable1JSON(w, rows) })
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
			writeJSON(*jsonOut, func(w io.Writer) error { return bench.WriteGauntletJSON(w, rows) })
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

// writeJSON runs write against path ("-" = stdout) and exits 1 when the
// file cannot be created, written or closed.
func writeJSON(path string, write func(io.Writer) error) {
	var err error
	if path == "-" {
		err = write(os.Stdout)
	} else {
		var f *os.File
		if f, err = os.Create(path); err == nil {
			err = errors.Join(write(f), f.Close())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
