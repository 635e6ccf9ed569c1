// Command traceview aggregates the JSONL span traces written by the
// -trace flag of reach/bddlab/tables into human-readable reports.
//
// Usage:
//
//	traceview summary trace.jsonl      # per-span rollups + critical path
//	traceview diff a.jsonl b.jsonl     # A/B comparison with signed deltas
//
// "-" reads a trace from stdin. The summary mode prints one rollup line
// per span/event name (count, total and self wall time, p50/p95) —
// including the schema-v3 quality.op ledger events — followed by a
// per-iteration critical-path breakdown for reachability traces; the
// diff mode prints the per-phase wall-time deltas of B relative to A,
// largest change first, tolerating one-sided phases: a name present in
// only one trace is reported with an "added"/"removed" ratio instead of
// failing.
package main

import (
	"fmt"
	"io"
	"os"

	"bddkit/internal/obs"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "summary":
		if len(args) != 2 {
			usage()
			return 2
		}
		a, code := analyze(args[1])
		if code != 0 {
			return code
		}
		a.WriteSummary(os.Stdout)
		return 0
	case "diff":
		if len(args) != 3 {
			usage()
			return 2
		}
		a, code := analyze(args[1])
		if code != 0 {
			return code
		}
		b, code := analyze(args[2])
		if code != 0 {
			return code
		}
		obs.WriteDiff(os.Stdout, a, b, obs.DiffRollups(a, b))
		return 0
	default:
		fmt.Fprintf(os.Stderr, "traceview: unknown mode %q\n", args[0])
		usage()
		return 2
	}
}

func analyze(path string) (*obs.TraceAnalysis, int) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traceview:", err)
			return nil, 1
		}
		defer f.Close()
		r = f
	}
	a, err := obs.AnalyzeTrace(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %s: %v\n", path, err)
		return nil, 1
	}
	return a, 0
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  traceview summary <trace.jsonl>       per-span rollups and critical path
  traceview diff <a.jsonl> <b.jsonl>    A/B per-phase wall-time deltas
use "-" to read a trace from stdin
`)
}
