// Command perfbench is bddkit's benchmark. Each process runs one seeded
// workload through the public functions of circuit, bdd, reach, approx,
// decomp, count, model/gauntlet and serve, checks every output against a
// reference that is not the code under test, and prints its metrics, one
// line each, followed by a JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload traversal --seed 1 --seconds 20 --trace 0
//
// The workloads are traversal (Table 1), corpus (Tables 2–4),
// combinatorial (bdd-benchmark-style instances on the parallel engine) and
// service (bddserve over loopback HTTP); each workload's file says why it
// exists and what it measures.
//
// Each workload defines a request: one traversal, one operator call on a
// corpus function, one gauntlet instance, or one HTTP request. p50_ms and
// p99_ms are over requests; on a library workload, whose pass serves 7 to
// 110 requests, p99_ms is a pass's p99, the median over passes, and sits
// near the pass's slowest request.
//
// --trace 0 measures the end-to-end metrics with tracing off; their times
// are reported at a reference machine speed (calibrate.go says why), with
// the raw values printed beside them. --trace 1
// alternates traced and untraced passes: traced passes record a span
// around every call the benchmark makes into a layer, with the manager's
// Stats() delta, as obs.Event JSONL under .bench_build/perfbench/traces,
// and the per-layer metrics are computed from that file. The program's own
// tracer (obs.T) stays off in both modes.
//
// -record-goldens rebuilds the expected outputs in goldens.json; it is a
// maintenance mode, never part of a measured run.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run reports, as BENCHMARK.json
// declares them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. Times and counts are
// per pass (per setup for the setup-phase spans). A workload that never
// calls into a layer reports that layer's metrics as 0, and so does the
// service workload for bdd.gc_count, which its server does not export.
var perLayer = []metricSpec{
	{"circuit.compile_s", "s"},

	{"bdd.unique_lookups", "count"},
	{"bdd.unique_hit_rate", "ratio"},
	{"bdd.cache_lookups", "count"},
	{"bdd.cache_hit_rate", "ratio"},
	{"bdd.gc_count", "count"},
	{"bdd.gc_s", "s"},
	{"bdd.reorder_count", "count"},
	{"bdd.reorder_s", "s"},
	{"bdd.peak_live_nodes", "count"},
	{"bdd.tasks_stolen", "count"},
	{"bdd.tasks_local", "count"},
	{"bdd.stw_count", "count"},

	{"reach.tr_build_s", "s"},
	{"reach.s3330.bfs_s", "s"},
	{"reach.s3330.hd_rua_s", "s"},
	{"reach.s3330.hd_sp_s", "s"},
	{"reach.s1269.bfs_s", "s"},
	{"reach.s1269.hd_rua_s", "s"},
	{"reach.s1269.hd_sp_s", "s"},
	{"reach.s5378.bfs_s", "s"},
	{"reach.s5378.hd_rua_s", "s"},
	{"reach.s5378.hd_sp_s", "s"},
	{"reach.am2910.bfs_s", "s"},
	{"reach.am2910.hd_rua_s", "s"},
	{"reach.am2910.hd_sp_s", "s"},
	{"reach.image_s", "s"},
	{"reach.subset_s", "s"},
	{"reach.closure_s", "s"},
	{"reach.iterations", "count"},
	{"reach.and_exists", "count"},
	{"reach.peak_product", "count"},

	{"approx.rua_s", "s"},
	{"approx.hb_s", "s"},
	{"approx.sp_s", "s"},
	{"approx.ua_s", "s"},
	{"approx.c1_s", "s"},
	{"approx.c2_s", "s"},

	{"decomp.cofactor_s", "s"},
	{"decomp.band_points_s", "s"},
	{"decomp.disjoint_points_s", "s"},
	{"decomp.decompose_s", "s"},
	{"decomp.mcmillan_s", "s"},

	{"count.minterms_s", "s"},
	{"count.weighted_s", "s"},
	{"count.sample_s", "s"},
	{"count.samples", "count"},

	{"gauntlet.queens.build_s", "s"},
	{"gauntlet.life.build_s", "s"},
	{"gauntlet.hamilton.build_s", "s"},
	{"gauntlet.adder.build_s", "s"},

	{"serve.count.p50_ms", "ms"},
	{"serve.sample.p50_ms", "ms"},
	{"serve.approx.p50_ms", "ms"},
	{"serve.decomp.p50_ms", "ms"},
	{"serve.ops.p50_ms", "ms"},
	{"serve.reach.p50_ms", "ms"},
	{"serve.upload.p50_ms", "ms"},
	{"serve.snapshot.p50_ms", "ms"},
	{"serve.server_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.degraded_frac", "ratio"},

	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// runConfig is what every workload receives: the seed-driven generator,
// the measurement window, and the span log (nil on untraced runs).
type runConfig struct {
	seed    int64
	rng     *rand.Rand
	seconds time.Duration
	traced  bool
	log     *spanLog
}

// passLog returns the span log for pass i: in a traced run the odd passes
// are traced and the even ones are not, so the same run measures both
// sides of the tracing overhead.
func (c *runConfig) passLog(i int) *spanLog {
	if c.traced && i%2 == 1 {
		return c.log
	}
	return nil
}

// enough reports whether a run that started at start and completed passes
// passes has measured long enough. A traced run needs two passes of each
// kind.
func (c *runConfig) enough(start time.Time, passes int) bool {
	need := 1
	if c.traced {
		need = 4
	}
	return passes >= need && time.Since(start) >= c.seconds
}

// outcome is what a workload measured. Untraced and traced samples are
// kept apart: the end-to-end metrics come from the untraced ones only.
type outcome struct {
	setups []measure // seconds per set-up

	passes       []measure // seconds per untraced pass
	tracedPasses []float64 // seconds per traced pass
	requests     []measure // ms per untraced request
	tracedReqs   []float64 // ms per traced request
	windows      []measure // seconds the untraced requests were measured over
	passP99      []measure // ms, p99 of each untraced pass's requests

	// calibrations are the timings of the reference workload
	// (calibrate.go), taken about every calibrateEvery between requests
	// and around set-ups.
	calibrations    []calibration
	lastCalibration time.Time

	workers int
	verdict verdict
}

// measure is one measured value and the wall-clock interval it was
// measured in; the interval selects the calibrations that convert the
// value to the reference speed.
type measure struct {
	from, to time.Time
	v        float64
}

// addPass records a library workload's pass, which ran from from until
// now: the time its set-ups took, its own time, and its requests'
// latencies in ms. A traced pass only feeds the tracing overhead.
func (o *outcome) addPass(from time.Time, traced bool, setup, pass time.Duration, lat []float64) {
	to := time.Now()
	if setup > 0 {
		o.setups = append(o.setups, measure{from, to, seconds(setup)})
	}
	if traced {
		o.tracedPasses = append(o.tracedPasses, seconds(pass))
		o.tracedReqs = append(o.tracedReqs, lat...)
		return
	}
	p := measure{from, to, seconds(pass)}
	o.passes = append(o.passes, p)
	o.windows = append(o.windows, p)
	o.passP99 = append(o.passP99, measure{from, to, quantile(lat, 0.99)})
	for _, l := range lat {
		o.requests = append(o.requests, measure{from, to, l})
	}
}

// verdict counts checked operations and keeps the first few failures.
type verdict struct {
	attempted, failed int
	firstErrs         []string
}

// record counts one checked operation; a non-nil err marks it failed.
func (v *verdict) record(err error) {
	v.attempted++
	if err == nil {
		return
	}
	v.failed++
	if len(v.firstErrs) < 10 {
		v.firstErrs = append(v.firstErrs, err.Error())
	}
}

type workload struct {
	name string
	run  func(*runConfig) (*outcome, error)
}

var workloads = []workload{
	{"traversal", runTraversal},
	{"corpus", runCorpus},
	{"combinatorial", runCombinatorial},
	{"service", runService},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: traversal, corpus, combinatorial or service")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	record := flag.Bool("record-goldens", false, "rebuild perfbench/goldens.json from the current code and exit")
	commit := flag.String("commit", "", "revision of the code under test, when known")
	flag.Parse()

	if *record {
		if err := recordGoldens(filepath.Join("perfbench", "goldens.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %d\n", *seconds)
		return 2
	}
	cfg := &runConfig{
		seed:    *seed,
		rng:     rand.New(rand.NewSource(*seed)),
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
	}
	if cfg.traced {
		cfg.log = &spanLog{}
	}

	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	rec := runRecord(wl.name, cfg, out, *commit)
	line, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", line)

	res := result{
		Correct:   out.verdict.failed == 0,
		Attempted: out.verdict.attempted,
		Failed:    out.verdict.failed,
		Metrics:   make(map[string]metricValue),
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was checked")
		return 1
	}
	for _, e := range out.verdict.firstErrs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	failedFrac := float64(res.Failed) / float64(res.Attempted)

	var specs []metricSpec
	var values map[string]float64
	if cfg.traced {
		path := filepath.Join(".bench_build", "perfbench", "traces",
			fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := cfg.log.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		values, err = layerMetrics(path, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		values["failed_frac"] = failedFrac
		fmt.Printf("trace %s\n", path)
		specs = perLayer
	} else {
		values = endToEndMetrics(out)
		specs = endToEnd
		raw := rawEndToEnd(out)
		for _, sp := range endToEnd {
			fmt.Printf("raw %-31s %14.6g %s\n", sp.name, raw[sp.name], sp.unit)
		}
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not produce %s\n", wl.name, s.name)
			return 1
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Printf("metric %-28s %14.6g %s\n", s.name, v, s.unit)
	}
	fmt.Printf("setups_s %s\npasses_s %s\ntraced_passes_s %s\n", fmtList(measured(out.setups)), fmtList(measured(out.passes)), fmtList(out.tracedPasses))
	fmt.Printf("samples setups=%d passes=%d traced_passes=%d requests=%d traced_requests=%d failed_frac=%g (%d/%d)\n",
		len(out.setups), len(out.passes), len(out.tracedPasses), len(out.requests), len(out.tracedReqs),
		failedFrac, res.Failed, res.Attempted)
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// endToEndMetrics reduces an untraced run to the metrics a user sees:
// times at the reference speed (calibrate.go), and the peak resident set.
func endToEndMetrics(out *outcome) map[string]float64 {
	return out.endToEnd(out.scale)
}

// rawEndToEnd is endToEndMetrics at this run's own speed.
func rawEndToEnd(out *outcome) map[string]float64 {
	return out.endToEnd(func(measure) float64 { return 1 })
}

// endToEnd computes the end-to-end metrics with each measured time
// multiplied by scale(its measure). A library workload's p99_ms is the
// median over passes of each pass's p99: a pass runs a fixed request set
// whose slowest few requests are each served once, so the p99 of all of a
// run's requests would fall on a different request when one more pass fits
// in the window.
func (o *outcome) endToEnd(scale func(measure) float64) map[string]float64 {
	scaled := func(ms []measure) []float64 {
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = m.v * scale(m)
		}
		return xs
	}
	reqs := scaled(o.requests)
	var busy float64
	for _, w := range scaled(o.windows) {
		busy += w
	}
	p99 := quantile(reqs, 0.99)
	if len(o.passP99) > 0 {
		p99 = median(scaled(o.passP99))
	}
	return map[string]float64{
		"setup_s":     median(scaled(o.setups)),
		"pass_s":      median(scaled(o.passes)),
		"req_per_s":   float64(len(reqs)) / busy,
		"p50_ms":      quantile(reqs, 0.50),
		"p99_ms":      p99,
		"peak_rss_mb": peakRSSMB(),
	}
}

func measured(ms []measure) []float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = m.v
	}
	return xs
}

// runRecord identifies the run: everything needed to compare two records.
func runRecord(name string, cfg *runConfig, out *outcome, commit string) map[string]any {
	return map[string]any{
		"workload":       name,
		"calibrations_s": out.calibrationTimes(),
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"trace":          cfg.traced,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"workers":        out.workers,
		"go":             runtime.Version(),
		"commit":         commit,
		"source":         sourceDigest(),
	}
}

// sourceDigest identifies the code under test by the Go sources of the
// checkout, which need not be a git work tree.
func sourceDigest() string {
	h := sha256.New()
	// Unreadable entries are skipped: the digest only has to tell two
	// source trees apart.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
