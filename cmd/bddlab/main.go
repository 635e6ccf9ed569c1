// Command bddlab applies the paper's approximation and decomposition
// algorithms to the outputs of a netlist and reports sizes, minterm counts
// and densities — a workbench for exploring the algorithms on your own
// circuits.
//
// Usage:
//
//	bddlab -in circuit.net                      # stats for every output
//	bddlab -in circuit.net -out y3 -approx rua  # approximate one output
//	bddlab -in circuit.net -out y3 -decomp band # decompose one output
//	bddlab -in circuit.net -out y3 -dot f.dot   # Graphviz dump
//
// The netlist format is the BLIF-flavored text format of
// internal/circuit/parse.go (see README). Approximation and decomposition
// runs file quality-ledger records (mass retained, nodes shed, budget
// headroom); start with -obs :6060 to expose them on /metrics and
// /quality, or pass -metrics for the end-of-run ledger table.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/cliutil"
	"bddkit/internal/count"
	"bddkit/internal/decomp"
	"bddkit/internal/obs"
	"bddkit/internal/prof"
)

// sess is the observability session, started from the -trace/-metrics/-obs
// flags; package-level so fatal can flush it before exiting.
var sess *obs.Session

func main() {
	in := flag.String("in", "", "input netlist file (required)")
	out := flag.String("out", "", "output signal to operate on (default: all, stats only)")
	doApprox := flag.String("approx", "", "approximation: hb, sp, ua, rua, c1, c2")
	threshold := flag.Int("threshold", 0, "approximation size threshold (0 = unrestricted)")
	quality := flag.Float64("quality", 1.0, "RUA quality factor")
	doDecomp := flag.String("decomp", "", "decomposition: cofactor, band, disjoint, mcmillan")
	dot := flag.String("dot", "", "write the (approximated) BDD in Graphviz format to this file")
	save := flag.String("save", "", "persist the (approximated) BDD to this file (bddkit-bdd format)")
	profile := flag.String("profile", "", "print a structural profile: text or json (with -out: of that BDD after -approx; without: of every live root)")
	static := flag.Bool("static", false, "compile with the DFS static variable order")
	stats := flag.Bool("stats", false, "print computed-cache and unique-table statistics on exit")
	var ocfg obs.Config
	ocfg.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := cliutil.NonNegative("threshold", *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "bddlab:", err)
		os.Exit(2)
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	sess = ocfg.MustStart()
	defer sess.Close()
	defer sess.DumpOnPanic()

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	nl, err := circuit.Parse(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	c, err := circuit.Compile(nl, circuit.CompileOptions{
		SkipNextVars: len(nl.Latches) == 0,
		StaticOrder:  *static,
		BDDConfig:    &bdd.Config{Observer: sess.Observer()},
	})
	if err != nil {
		fatal(err)
	}
	m := c.M
	sess.ObserveManager(m)
	if *stats {
		defer func() {
			fmt.Println(m.CacheStats())
			fmt.Println(m.UniqueStats())
		}()
	}

	report := func(label string, g bdd.Ref) {
		fmt.Printf("%-24s |f| = %-8d ||f|| = %-14.6g density = %.6g\n",
			label, m.DagSize(g), math.Ldexp(count.Fraction(m, g), m.NumVars()), approx.Density(m, g))
	}

	if *profile != "" && *profile != "text" && *profile != "json" {
		fatal(fmt.Errorf("unknown -profile mode %q (want text or json)", *profile))
	}

	if *out == "" {
		for i, g := range c.Outputs {
			report(nl.OutName[i], g)
		}
		if *profile != "" {
			// Profile the forest of every live root and cross-check it
			// against the manager's own live-node accounting.
			m.GarbageCollect() // drop compile intermediates so live == referenced
			p := prof.Compute(m, c.LiveRoots(), prof.Options{PathHist: false})
			if err := writeProfile(p, *profile); err != nil {
				fatal(err)
			}
			fmt.Printf("profile covers %d nodes; manager accounts %d live\n",
				p.TotalNodes(), m.NodeCount())
		}
		return
	}

	var target bdd.Ref
	found := false
	for i, name := range nl.OutName {
		if name == *out {
			target = c.Outputs[i]
			found = true
			break
		}
	}
	if !found {
		fatal(fmt.Errorf("output %q not found", *out))
	}
	report(*out, target)

	result := target
	if *doApprox != "" {
		var g bdd.Ref
		switch *doApprox {
		case "hb":
			g = approx.HeavyBranch(m, target, *threshold)
		case "sp":
			g = approx.ShortPaths(m, target, *threshold)
		case "ua":
			g = approx.UnderApprox(m, target, *threshold, 0.5)
		case "rua":
			g = approx.RemapUnderApprox(m, target, *threshold, *quality)
		case "c1":
			g = approx.Compound1(m, target, *threshold, *quality)
		case "c2":
			g = approx.Compound2(m, target, *threshold, *quality)
		default:
			fatal(fmt.Errorf("unknown approximation %q", *doApprox))
		}
		report(*doApprox+"("+*out+")", g)
		if !m.Leq(g, target) {
			fatal(fmt.Errorf("internal error: result is not an underapproximation"))
		}
		result = g
	}

	if *doDecomp != "" {
		switch *doDecomp {
		case "cofactor":
			p := decomp.Cofactor(m, target)
			reportPair(m, p)
		case "band":
			p := decomp.Decompose(m, target, decomp.BandPoints(m, target, decomp.DefaultBandConfig()))
			reportPair(m, p)
		case "disjoint":
			p := decomp.Decompose(m, target, decomp.DisjointPoints(m, target, decomp.DefaultDisjointConfig()))
			reportPair(m, p)
		case "mcmillan":
			fs := decomp.McMillan(m, target)
			fmt.Printf("mcmillan: %d factors, shared size %d\n", len(fs), m.SharingSize(fs))
			for i, fi := range fs {
				fmt.Printf("  f%-3d |f| = %d\n", i, m.DagSize(fi))
			}
		default:
			fatal(fmt.Errorf("unknown decomposition %q", *doDecomp))
		}
	}

	// nodeProfile is the single-root profile of the (possibly approximated)
	// target; computed once and shared by -profile output and -dot coloring.
	var nodeProfile *prof.Profile
	if *profile != "" || *dot != "" {
		nodeProfile = prof.For(m, result)
	}
	if *profile != "" {
		if err := writeProfile(nodeProfile, *profile); err != nil {
			fatal(err)
		}
	}

	if *save != "" {
		w, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := m.Save(w, []string{*out}, []bdd.Ref{result}); err != nil {
			fatal(err)
		}
		w.Close()
		fmt.Printf("saved %s\n", *save)
	}

	if *dot != "" {
		w, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		dopts := bdd.DotOptions{NodeColor: nodeProfile.DotColor}
		if err := m.DumpDotStyled(w, []string{*out}, []bdd.Ref{result}, dopts); err != nil {
			fatal(err)
		}
		w.Close()
		fmt.Printf("wrote %s\n", *dot)
	}
}

func writeProfile(p *prof.Profile, mode string) error {
	if mode == "json" {
		return p.WriteJSON(os.Stdout)
	}
	p.WriteText(os.Stdout)
	return nil
}

func reportPair(m *bdd.Manager, p decomp.Pair) {
	fmt.Printf("factors: |G| = %d, |H| = %d, shared = %d\n",
		m.DagSize(p.G), m.DagSize(p.H), p.SharedSize(m))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bddlab:", err)
	sess.Close() // os.Exit skips defers; flush the trace explicitly
	os.Exit(1)
}
