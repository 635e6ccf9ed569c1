// Command reach runs symbolic reachability analysis on the built-in
// benchmark models (or a netlist file) with the traversal strategies of
// the paper's Table 1.
//
// Usage:
//
//	reach -model am2910 -method hd-rua
//	reach -model s5378 -scale full -method bfs -budget 5m
//	reach -in mydesign.net -method hd-sp -threshold 2000
//	reach -model counter -method bfs -trace trace.jsonl -obs :6060
//
// With -obs the run serves the observability endpoint (Prometheus
// /metrics and the /quality approximation-loss ledger); watch it live with
// `bddtop -addr localhost:6060`. Every traversal iteration yields a
// quality.op ledger record (fresh mass discovered, mass the subsetted
// frontier kept, budget headroom), filed when the traversal ends and
// summarized at exit by -metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/cliutil"
	"bddkit/internal/model"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

func main() { os.Exit(run()) }

func run() int {
	mdl := flag.String("model", "", "built-in model: am2910, s1269, s3330, s5378, or counter")
	in := flag.String("in", "", "netlist file (alternative to -model)")
	scale := flag.String("scale", "small", "model scale: small, table1, full")
	method := flag.String("method", "bfs", "traversal: bfs, hd-rua, hd-sp, hd-hb")
	threshold := flag.Int("threshold", 0, "frontier subset threshold (HD)")
	quality := flag.Float64("quality", 1.0, "RUA quality factor (HD)")
	pimgLimit := flag.Int("pimg-limit", 0, "partial-image trigger size (0 = exact images)")
	pimgTh := flag.Int("pimg-threshold", 0, "partial-image subset size")
	budget := flag.Duration("budget", 5*time.Minute, "wall-clock budget")
	cluster := flag.Int("cluster", 2500, "transition-relation cluster threshold")
	stats := flag.Bool("stats", false, "print computed-cache and unique-table statistics after a successful run (stderr)")
	profile := flag.Bool("profile", false, "emit per-iteration frontier/reached structural profiles as reach.profile trace events (needs -trace)")
	var ocfg obs.Config
	ocfg.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := cliutil.Check(
		cliutil.NonNegative("threshold", *threshold),
		cliutil.NonNegative("pimg-limit", *pimgLimit),
		cliutil.NonNegative("pimg-threshold", *pimgTh),
		cliutil.NonNegativeDuration("budget", *budget),
		cliutil.Positive("cluster", *cluster),
	); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}

	// Validate every flag before doing any work: a bad -method must not
	// cost a circuit compilation (and must not print statistics).
	var sub reach.Subsetter
	switch *method {
	case "bfs":
	case "hd-rua":
		sub = reach.RUASubsetter(*quality)
	case "hd-sp":
		sub = reach.SPSubsetter()
	case "hd-hb":
		sub = reach.HBSubsetter()
	default:
		fmt.Fprintf(os.Stderr, "reach: unknown method %q\n", *method)
		return 2
	}
	nl, err := pickModel(*mdl, *in, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		return 2
	}

	sess := ocfg.MustStart()
	defer sess.Close()
	defer sess.DumpOnPanic()

	fmt.Printf("circuit %s: %d inputs, %d flip-flops, %d gates\n",
		nl.Name, len(nl.Inputs), len(nl.Latches), nl.NumGates())

	c, err := circuit.Compile(nl, circuit.CompileOptions{
		AutoReorder: true,
		BDDConfig:   &bdd.Config{Observer: sess.Observer()},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		return 1
	}
	sess.ObserveManager(c.M)
	tr, err := reach.NewTR(c, reach.TROptions{ClusterSize: *cluster})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		return 1
	}
	fmt.Printf("transition relation: %d clusters\n", len(tr.Clusters))

	opts := reach.Options{Threshold: *threshold, Budget: *budget, Profile: *profile}
	if *pimgLimit > 0 && sub != nil {
		opts.PImg = &reach.PImg{Limit: *pimgLimit, Threshold: *pimgTh, Subset: sub}
	}

	var res reach.Result
	if sub == nil {
		res = tr.BFS(c.Init, opts)
	} else {
		opts.Subset = sub
		res = tr.HighDensity(c.Init, opts)
	}

	status := "completed"
	if !res.Completed {
		status = "BUDGET EXHAUSTED (lower bound)"
	}
	fmt.Printf("%s: %s\n", *method, status)
	fmt.Printf("  states      %.6g\n", res.States)
	if res.StatesExact != nil {
		fmt.Printf("  exact       %s states\n", res.StatesExact)
	}
	fmt.Printf("  |reached|   %d nodes\n", res.Nodes)
	fmt.Printf("  iterations  %d (+%d closure checks)\n", res.Iterations, res.Closure)
	fmt.Printf("  images      %d (%d AndExists, %d partial-image cuts)\n",
		res.Stats.Images, res.Stats.AndExists, res.Stats.PImgCuts)
	fmt.Printf("  peak        %d live nodes, %d largest product\n",
		res.Stats.PeakLiveNodes, res.Stats.PeakProduct)
	if res.Stats.CacheLookups > 0 {
		fmt.Printf("  cache       %.1f%% hit rate (%d lookups)\n",
			100*float64(res.Stats.CacheHits)/float64(res.Stats.CacheLookups),
			res.Stats.CacheLookups)
	}
	fmt.Printf("  time        %v (image %v, subset %v, closure %v)\n",
		res.Elapsed.Round(time.Millisecond),
		res.Stats.ImageTime.Round(time.Millisecond),
		res.Stats.SubsetTime.Round(time.Millisecond),
		res.Stats.ClosureTime.Round(time.Millisecond))
	fmt.Printf("  reorder     %v in %d sifts\n",
		res.Stats.ReorderTime.Round(time.Millisecond), res.Stats.Reorderings)
	if *stats {
		// Diagnostics go to stderr, after the run: error paths above never
		// reach this point, so a failed invocation prints no statistics.
		fmt.Fprintln(os.Stderr, c.M.CacheStats())
		fmt.Fprintln(os.Stderr, c.M.UniqueStats())
	}
	c.M.Deref(res.Reached)
	tr.Release()
	c.Release()
	return 0
}

func pickModel(mdl, in, scale string) (*circuit.Netlist, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.Parse(f)
	}
	switch mdl {
	case "am2910":
		switch scale {
		case "small":
			return model.Am2910(model.Am2910Small()), nil
		case "table1":
			return model.Am2910(model.Am2910Config{Width: 8, StackDepth: 3, WithROM: true, RomSeed: 7}), nil
		default:
			return model.Am2910(model.Am2910Full()), nil
		}
	case "s1269":
		if scale == "small" {
			return model.S1269(model.S1269Small()), nil
		}
		return model.S1269(model.S1269Full()), nil
	case "s3330":
		if scale == "small" {
			return model.S3330(model.S3330Small()), nil
		}
		return model.S3330(model.S3330Full()), nil
	case "s5378":
		switch scale {
		case "small":
			return model.S5378(model.S5378Small()), nil
		case "table1":
			return model.S5378(model.S5378Config{Units: 6, UnitWidth: 5}), nil
		default:
			return model.S5378(model.S5378Full()), nil
		}
	case "counter":
		b := circuit.NewBuilder("counter16")
		en := b.Input("en")
		q := b.LatchBus("q", 16, 0)
		inc, _ := b.Incrementer(q)
		b.SetNextBus(q, b.MuxBus(en, inc, q))
		b.Output("tc", b.EqConst(q, 0xFFFF))
		return b.MustBuild(), nil
	case "":
		return nil, fmt.Errorf("one of -model or -in is required")
	}
	return nil, fmt.Errorf("unknown model %q", mdl)
}
