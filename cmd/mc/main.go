// Command mc model-checks CTL formulas over a netlist's state space.
// Atomic propositions are the latch output names (true when the latch
// holds 1).
//
// Usage:
//
//	mc -model am2910 -ctl "AG EF (sp0 | !sp0)"
//	mc -in design.net -ctl "AG(req -> AF ack)" -reachable
//
// The standard observability flags apply: -trace writes a JSONL trace,
// -obs serves /metrics (Prometheus), /quality and /parallel (watch with
// bddtop), and -metrics prints the end-of-run counter and
// quality-ledger tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/cliutil"
	"bddkit/internal/mc"
	"bddkit/internal/model"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

// sess is the observability session; package-level so fatal can flush it.
var sess *obs.Session

func main() {
	mdl := flag.String("model", "", "built-in model: am2910, s1269, s3330, s5378")
	in := flag.String("in", "", "netlist file (alternative to -model)")
	ctl := flag.String("ctl", "", "CTL formula (required)")
	reachable := flag.Bool("reachable", false, "restrict to reachable states first")
	budget := flag.Duration("budget", 2*time.Minute, "reachability budget with -reachable")
	workers := flag.Int("workers", 1, "BDD engine worker goroutines (1 = serial, 0 = GOMAXPROCS)")
	var ocfg obs.Config
	ocfg.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := cliutil.Check(
		cliutil.Workers(*workers),
		cliutil.NonNegativeDuration("budget", *budget),
	); err != nil {
		fmt.Fprintln(os.Stderr, "mc:", err)
		os.Exit(2)
	}
	bdd.SetDefaultWorkers(*workers)
	if *ctl == "" {
		flag.Usage()
		os.Exit(2)
	}
	sess = ocfg.MustStart()
	defer sess.Close()
	defer sess.DumpOnPanic()

	nl, err := pickModel(*mdl, *in)
	if err != nil {
		fatal(err)
	}
	f, err := mc.Parse(*ctl)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit %s (%d FFs), formula %s\n", nl.Name, len(nl.Latches), f)

	c, err := circuit.Compile(nl, circuit.CompileOptions{
		AutoReorder: true,
		BDDConfig:   &bdd.Config{Observer: sess.Observer()},
	})
	if err != nil {
		fatal(err)
	}
	sess.ObserveManager(c.M)
	tr, err := reach.NewTR(c, reach.DefaultTROptions())
	if err != nil {
		fatal(err)
	}
	ck := mc.NewChecker(c, tr, nil)
	ck.DefineLatchAtoms()
	if *reachable {
		states, err := ck.RestrictToReachable(reach.Options{Budget: *budget})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("restricted to %.6g reachable states\n", states)
	}
	sat, err := ck.Sat(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("|Sat| = %d nodes, %.6g states\n", c.M.DagSize(sat), tr.StateCount(sat))
	holds, err := ck.Holds(f)
	if err != nil {
		fatal(err)
	}
	if holds {
		fmt.Println("PASS: every initial state satisfies the formula")
	} else {
		fmt.Println("FAIL: some initial state violates the formula")
		sess.Close() // os.Exit skips defers
		os.Exit(1)
	}
	c.M.Deref(sat)
	ck.Release()
	tr.Release()
	c.Release()
}

func pickModel(mdl, in string) (*circuit.Netlist, error) {
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
		return model.Am2910(model.Am2910Small()), nil
	case "s1269":
		return model.S1269(model.S1269Small()), nil
	case "s3330":
		return model.S3330(model.S3330Small()), nil
	case "s5378":
		return model.S5378(model.S5378Small()), nil
	case "":
		return nil, fmt.Errorf("one of -model or -in is required")
	}
	return nil, fmt.Errorf("unknown model %q", mdl)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mc:", err)
	sess.Close() // os.Exit skips defers
	os.Exit(1)
}
