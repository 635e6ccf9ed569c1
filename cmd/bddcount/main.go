// Command bddcount builds a gauntlet benchmark instance (N-Queens, Game
// of Life predecessors, Hamiltonian cycles, adder-equivalence miters) and
// runs exact model counting over it: #SAT as an arbitrary-precision
// integer, weighted counting under per-variable probabilities, or uniform
// satisfying-assignment sampling.
//
// Usage:
//
//	bddcount -family queens -n 8                       # exact solution count
//	bddcount -family queens -n 8 -check                # ...verified against the published sequence
//	bddcount -family life -rows 4 -cols 4 -mode weighted -bias 0.25
//	bddcount -family hamilton-grid -rows 3 -cols 4 -mode sample -samples 5
//	bddcount -family equiv-adder -n 16 -fault
//
// With -obs the run serves the observability endpoint; counting and
// sampling file quality-ledger records (kind "count"), where a sampling
// run's mass-in is the solution fraction of the space and mass-out the
// fraction of distinct solutions actually drawn — a coverage measure.
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/cliutil"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
	"bddkit/internal/oracle"
)

func main() { os.Exit(run()) }

func run() int {
	family := flag.String("family", "queens", "instance family: "+strings.Join(gauntlet.Families(), ", "))
	n := flag.Int("n", 6, "board size (queens) or adder width (equiv-adder)")
	rows := flag.Int("rows", 3, "board rows (life, hamilton-*)")
	cols := flag.Int("cols", 3, "board cols (life, hamilton-*)")
	fault := flag.Bool("fault", false, "inject the stuck-at-0 carry fault (equiv-adder)")
	mode := flag.String("mode", "count", "operation: count, weighted, sample")
	samples := flag.Int("samples", 10, "assignments to draw (sample mode)")
	seed := flag.Int64("seed", 1, "sampling RNG seed")
	bias := flag.Float64("bias", 0.5, "per-variable true-probability (weighted mode)")
	check := flag.Bool("check", false, "verify the count against the family's independent ground truth")
	var ocfg obs.Config
	ocfg.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := cliutil.Check(
		cliutil.NonNegative("samples", *samples),
		cliutil.Fraction("bias", *bias),
	); err != nil {
		fmt.Fprintln(os.Stderr, "bddcount:", err)
		return 2
	}
	p := gauntlet.Params{Family: *family, N: *n, Rows: *rows, Cols: *cols, Fault: *fault}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bddcount:", err)
		return 2
	}
	switch *mode {
	case "count", "weighted", "sample":
	default:
		fmt.Fprintf(os.Stderr, "bddcount: unknown mode %q\n", *mode)
		return 2
	}

	sess := ocfg.MustStart()
	defer sess.Close()
	defer sess.DumpOnPanic()

	// The manager reports to the session from its first node on: building
	// the instance is where the garbage collections happen.
	start := time.Now()
	m, f, err := gauntlet.New(p, sess.Observer())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddcount:", err)
		return 1
	}
	sess.ObserveManager(m)
	nodes := m.DagSize(f)
	fmt.Printf("%s: %d variables, %d nodes (built in %v)\n",
		p.Name(), p.Vars(), nodes, time.Since(start).Round(time.Millisecond))

	countStart := time.Now()
	total, err := count.Minterms(m, f, p.Vars())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddcount:", err)
		return 1
	}
	countDur := time.Since(countStart)
	fmt.Printf("count: %s solutions (%v)\n", total, countDur.Round(time.Microsecond))
	recordCount(obs.Of(m).Ledger(), p, nodes, total, countDur)

	if *check {
		want, ok := oracle.ExpectedCount(p)
		if !ok {
			fmt.Fprintf(os.Stderr, "bddcount: no independent ground truth in range for %s\n", p.Name())
			return 1
		}
		if total.Cmp(want) != 0 {
			fmt.Fprintf(os.Stderr, "bddcount: CHECK FAILED: counted %s, ground truth %s\n", total, want)
			return 1
		}
		fmt.Printf("check: matches independent ground truth (%s)\n", want)
	}

	switch *mode {
	case "weighted":
		w := count.Weighted(m, f, func(int) float64 { return *bias })
		fmt.Printf("weighted: P[f=1] = %.9g at per-variable bias %v\n", w, *bias)
	case "sample":
		if err := runSampling(m, f, p, total, *samples, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bddcount:", err)
			return 1
		}
	}
	m.Deref(f)
	return 0
}

// runSampling draws and prints assignments, tracking distinct-solution
// coverage for the ledger record.
func runSampling(m *bdd.Manager, f bdd.Ref, p gauntlet.Params, total *big.Int, samples int, seed int64) error {
	start := time.Now()
	s, err := count.NewSampler(m, f, p.Vars(), seed)
	if err != nil {
		return err
	}
	distinct := make(map[string]bool)
	for i := 0; i < samples; i++ {
		a := s.Sample()
		b := make([]byte, len(a))
		for j, bit := range a {
			b[j] = '0'
			if bit {
				b[j] = '1'
			}
		}
		fmt.Printf("sample %3d: %s\n", i, b)
		distinct[string(b)] = true
	}
	fmt.Printf("sampled %d assignments, %d distinct, seed %d\n", samples, len(distinct), seed)
	if ledger := obs.Of(m).Ledger(); ledger != nil {
		// Mass-in: the solution fraction of the space. Mass-out: the
		// fraction of distinct solutions this run actually covered.
		frac := count.Fraction(m, f)
		coverage := 0.0
		if total.IsInt64() && total.Int64() > 0 {
			coverage = float64(len(distinct)) / float64(total.Int64())
		}
		ledger.Record(obs.OpRecord{
			Kind:    "count",
			Op:      "sample",
			SizeIn:  m.DagSize(f),
			SizeOut: len(distinct),
			MassIn:  frac,
			MassOut: frac * coverage,
			DurNS:   time.Since(start).Nanoseconds(),
		})
	}
	return nil
}

// recordCount files the counting ledger record: a lossless operation
// (mass retained 1) whose duration and size document the sweep.
func recordCount(ledger *obs.Ledger, p gauntlet.Params, nodes int, total *big.Int, dur time.Duration) {
	if ledger == nil {
		return
	}
	frac, _ := new(big.Float).Quo(
		new(big.Float).SetInt(total),
		new(big.Float).SetMantExp(big.NewFloat(1), p.Vars()),
	).Float64()
	ledger.Record(obs.OpRecord{
		Kind:    "count",
		Op:      "minterms",
		SizeIn:  nodes,
		SizeOut: nodes,
		MassIn:  frac,
		MassOut: frac,
		DurNS:   dur.Nanoseconds(),
	})
}
