// Command equiv checks combinational equivalence of two netlists with
// BDDs: inputs and outputs are matched by name, and a mismatch comes with
// a concrete distinguishing input assignment.
//
// Usage:
//
//	equiv golden.net revised.net
//
// The standard observability flags apply: -trace writes a JSONL trace,
// -obs serves /metrics (Prometheus) and /quality (watch with bddtop), and
// -metrics prints the end-of-run tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"bddkit/internal/circuit"
	"bddkit/internal/obs"
)

// sess is the observability session; package-level so fatal can flush it.
var sess *obs.Session

func main() {
	var ocfg obs.Config
	ocfg.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] golden.net revised.net\n", os.Args[0])
		os.Exit(2)
	}
	sess = ocfg.MustStart()
	defer sess.Close()
	defer sess.DumpOnPanic()
	a, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	ok, mm, err := circuit.Equivalent(a, b, sess.Observer())
	if err != nil {
		fatal(err)
	}
	if ok {
		fmt.Printf("EQUIVALENT: %s == %s (%d outputs)\n", a.Name, b.Name, len(a.Outputs))
		return
	}
	fmt.Printf("NOT EQUIVALENT: output %s differs\n", mm.Output)
	names := make([]string, 0, len(mm.Inputs))
	for n := range mm.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("distinguishing assignment:")
	for _, n := range names {
		v := 0
		if mm.Inputs[n] {
			v = 1
		}
		fmt.Printf("  %s = %d\n", n, v)
	}
	sess.Close() // os.Exit skips defers
	os.Exit(1)
}

func load(path string) (*circuit.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return circuit.Parse(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "equiv:", err)
	sess.Close() // os.Exit skips defers
	os.Exit(1)
}
