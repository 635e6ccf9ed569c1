// Command obscheck validates observability output from the other commands.
//
// In its default (trace) mode it checks a JSONL trace file produced by the
// -trace flag: every line must be a well-formed span or event record (see
// internal/obs), including the schema-v3 quality ledger (quality.op),
// whose known attributes are checked field-by-field.
// It prints a one-line summary and exits nonzero on the first malformed
// line (reported with its 1-based line number), which makes it usable as a
// smoke check in CI (see `make obs-smoke` and `make check`).
//
// With -prom it instead lints a Prometheus text-exposition page, such as a
// snapshot of the -obs endpoint's /metrics: duplicate series, samples with
// no TYPE/HELP, unknown types, invalid counter values, and malformed
// histograms (non-cumulative buckets, missing le="+Inf", _count mismatch)
// are reported. With two files, the first is treated as an earlier scrape
// of the same process and counters that went backwards are flagged too.
//
// Usage:
//
//	obscheck trace.jsonl
//	obscheck -require reach.iteration trace.jsonl
//	reach -model counter -trace /dev/stdout | obscheck -quiet -
//	obscheck -prom metrics.txt
//	curl -s localhost:6060/metrics | obscheck -prom -
//	obscheck -prom scrape1.txt scrape2.txt   # + counter monotonicity
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bddkit/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated span/event names that must appear at least once (trace mode)")
	quiet := flag.Bool("quiet", false, "print only the summary line, not the per-name breakdown")
	prom := flag.Bool("prom", false, "lint Prometheus text exposition instead of a JSONL trace")
	flag.Parse()
	if *prom {
		checkProm(flag.Args(), *quiet)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: %s [-quiet] [-require name,...] trace.jsonl|-\n", os.Args[0])
		fmt.Fprintf(os.Stderr, "       %s -prom metrics.txt|- [earlier-scrape.txt later-scrape.txt]\n", os.Args[0])
		os.Exit(2)
	}
	path := flag.Arg(0)
	r, closeFn := openArg(path)
	defer closeFn()
	if path == "-" {
		path = "<stdin>"
	}
	sum, err := obs.ValidateJSONL(r)
	if err != nil {
		// ValidateJSONL errors carry the 1-based line number of the first
		// malformed record; prefix the file so multi-file runs stay readable.
		fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	if *require != "" {
		var missing []string
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && sum.ByName[name] == 0 {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "obscheck: %s: missing required records: %s\n",
				path, strings.Join(missing, ", "))
			os.Exit(1)
		}
	}
	fmt.Printf("%s: %d lines OK (%d spans, %d events, schema v%d)\n",
		path, sum.Lines, sum.Spans, sum.Events, sum.Version)
	if *quiet {
		return
	}
	names := make([]string, 0, len(sum.ByName))
	for n := range sum.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %d\n", n, sum.ByName[n])
	}
}

// checkProm lints one exposition page, or two scrapes of the same process
// (earlier first) with a counter-monotonicity pass across them.
func checkProm(args []string, quiet bool) {
	if len(args) != 1 && len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s -prom metrics.txt|- [earlier.txt later.txt]\n", os.Args[0])
		os.Exit(2)
	}
	scrapes := make([]*obs.PromScrape, len(args))
	for i, path := range args {
		r, closeFn := openArg(path)
		scrape, err := obs.ParsePrometheus(r)
		closeFn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", displayPath(path), err)
			os.Exit(1)
		}
		scrapes[i] = scrape
	}
	failed := false
	for i, scrape := range scrapes {
		problems := obs.LintPrometheus(scrape)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %s\n", displayPath(args[i]), p)
		}
		failed = failed || len(problems) > 0
	}
	if len(scrapes) == 2 {
		problems := obs.CheckCounterMonotonic(scrapes[0], scrapes[1])
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "obscheck: %s -> %s: %s\n",
				displayPath(args[0]), displayPath(args[1]), p)
		}
		failed = failed || len(problems) > 0
	}
	if failed {
		os.Exit(1)
	}
	last := scrapes[len(scrapes)-1]
	series := 0
	for _, f := range last.Families {
		series += len(f.Samples)
	}
	fmt.Printf("%s: %d metric families, %d series OK\n",
		displayPath(args[len(args)-1]), len(last.Order), series)
	if quiet {
		return
	}
	for _, name := range sortedFamilies(last) {
		f := last.Families[name]
		fmt.Printf("  %-40s %-9s %d\n", name, f.Type, len(f.Samples))
	}
}

func sortedFamilies(s *obs.PromScrape) []string {
	names := append([]string(nil), s.Order...)
	sort.Strings(names)
	return names
}

func displayPath(path string) string {
	if path == "-" {
		return "<stdin>"
	}
	return path
}

// openArg opens a file argument, with "-" meaning stdin.
func openArg(path string) (io.Reader, func()) {
	if path == "-" {
		return os.Stdin, func() {}
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
	return f, func() { f.Close() }
}
