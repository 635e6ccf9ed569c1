// Command bddtop is a live terminal console over the -obs endpoint: point
// it at a running reach/tables/bddlab/bddcount/mc/equiv process started
// with -obs :6060 and it polls /metrics (Prometheus exposition) and
// /quality (the approximation-loss ledger), rendering one refreshing frame
// per interval:
//
//   - manager gauges — live/dead nodes, node limit with a budget-headroom
//     bar, arena occupancy, cache hit rate and GC count;
//   - trajectories — sparklines of live nodes, mass retained, and budget
//     headroom over the last 48 frames; bddtop keeps this history itself,
//     one point per frame from that frame's /metrics scrape, so it begins
//     when bddtop attaches;
//   - the quality ledger — loss-so-far per operator (count, aborts, mean
//     and minimum mass retained, nodes shed) plus the most recent
//     operation (current reach iteration, its mass trade, abort cause).
//
// Usage:
//
//	bddtop                       # watch localhost:6060
//	bddtop -addr host:7070       # elsewhere
//	bddtop -interval 250ms       # faster refresh
//	bddtop -frames 3 -plain      # three frames, no ANSI (CI / piping)
//
// With -plain each frame is printed sequentially instead of redrawing in
// place, which makes the output usable in logs and tests.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"bddkit/internal/cliutil"
	"bddkit/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:6060", "host:port of the -obs endpoint to watch")
	interval := flag.Duration("interval", time.Second, "poll/refresh interval")
	frames := flag.Int("frames", 0, "stop after this many frames (0 = run until the endpoint goes away)")
	plain := flag.Bool("plain", false, "no ANSI control sequences; print frames sequentially")
	flag.Parse()
	if err := cliutil.Check(
		cliutil.PositiveDuration("interval", *interval),
		cliutil.NonNegative("frames", *frames),
	); err != nil {
		fmt.Fprintln(os.Stderr, "bddtop:", err)
		os.Exit(2)
	}

	c := &console{
		base:   "http://" + *addr,
		client: &http.Client{Timeout: 5 * time.Second},
	}
	failures := 0
	for frame := 1; ; frame++ {
		buf, err := c.renderFrame(frame)
		if err != nil {
			failures++
			// A brand-new endpoint may not be listening yet; in watch mode
			// tolerate a few misses before giving up.
			if *frames > 0 || failures >= 5 {
				fmt.Fprintf(os.Stderr, "bddtop: %s: %v\n", *addr, err)
				os.Exit(1)
			}
		} else {
			failures = 0
			if !*plain {
				// Home + clear-to-end redraws in place without flicker.
				os.Stdout.WriteString("\x1b[H\x1b[2J")
			}
			os.Stdout.Write(buf)
		}
		if *frames > 0 && frame >= *frames {
			return
		}
		time.Sleep(*interval)
	}
}

type console struct {
	base   string
	client *http.Client

	// live, mass and head are the history the trajectories panel plots:
	// one value per frame from that frame's /metrics scrape, oldest
	// first, at most sparkWidth of them.
	live, mass, head []float64
}

// sparkWidth is how many frames of history a sparkline shows.
const sparkWidth = 48

func (c *console) get(path string) (io.ReadCloser, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return resp.Body, nil
}

func (c *console) getJSON(path string, v any) error {
	body, err := c.get(path)
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(v)
}

// renderFrame polls the endpoint and renders one frame. /metrics is
// required (its failure aborts the frame); the JSON panels degrade
// gracefully when absent.
func (c *console) renderFrame(frame int) ([]byte, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	scrape, err := obs.ParsePrometheus(body)
	body.Close()
	if err != nil {
		return nil, fmt.Errorf("/metrics: %v", err)
	}
	c.record(scrape)
	var quality obs.LedgerSnapshot
	qualityOK := c.getJSON("/quality", &quality) == nil

	var b bytes.Buffer
	c.header(&b, frame, quality, qualityOK)
	c.gauges(&b, scrape)
	if len(c.live) > 1 {
		c.trajectories(&b)
	}
	if qualityOK {
		c.qualityPanel(&b, quality)
	}
	return b.Bytes(), nil
}

// record appends the scrape's values of the plotted series to the
// history, once the process serves a manager's gauges.
func (c *console) record(scrape *obs.PromScrape) {
	live, ok := scrape.Value("bdd_live_nodes")
	if !ok {
		return
	}
	mass, _ := scrape.Value("quality_last_mass_retained")
	head, _ := scrape.Value("bdd_budget_headroom")
	c.live = push(c.live, live)
	c.mass = push(c.mass, mass)
	c.head = push(c.head, head)
}

// push appends v to a series, keeping its last sparkWidth values.
func push(series []float64, v float64) []float64 {
	series = append(series, v)
	if len(series) > sparkWidth {
		series = series[len(series)-sparkWidth:]
	}
	return series
}

func (c *console) header(b *bytes.Buffer, frame int, q obs.LedgerSnapshot, qOK bool) {
	now := time.Now().Format("15:04:05")
	fmt.Fprintf(b, "bddtop  %s  %s  frame %d", c.base, now, frame)
	if qOK {
		fmt.Fprintf(b, "  |  quality ops %d (%d aborted)", q.Ops, q.Aborts)
	}
	b.WriteString("\n\n")
}

func (c *console) gauges(b *bytes.Buffer, scrape *obs.PromScrape) {
	live, _ := scrape.Value("bdd_live_nodes")
	dead, _ := scrape.Value("bdd_dead_nodes")
	limit, _ := scrape.Value("bdd_node_limit")
	headroom, hok := scrape.Value("bdd_budget_headroom")
	occ, _ := scrape.Value("bdd_arena_occupancy")
	hit, _ := scrape.Value("bdd_cache_hit_rate")
	gcs, _ := scrape.Value("bdd_gc_total")

	fmt.Fprintf(b, "  nodes   live %-10s dead %-10s", humanCount(live), humanCount(dead))
	if limit > 0 {
		fmt.Fprintf(b, " limit %-10s", humanCount(limit))
		if hok {
			fmt.Fprintf(b, " headroom %s %4.0f%%", bar(headroom, 20), headroom*100)
		}
	} else {
		fmt.Fprintf(b, " limit none")
	}
	b.WriteByte('\n')
	fmt.Fprintf(b, "  engine  arena %4.0f%%       cache-hit %4.0f%%   gc %s\n",
		occ*100, hit*100, humanCount(gcs))
	b.WriteByte('\n')
}

// trajectories plots the history: resource use (live nodes), quality
// (mass retained of the latest op at each frame), and budget headroom.
func (c *console) trajectories(b *bytes.Buffer) {
	n := len(c.live)
	fmt.Fprintf(b, "  live nodes    %s  %s\n", spark(c.live), humanCount(c.live[n-1]))
	fmt.Fprintf(b, "  mass retained %s  %.3f\n", spark(c.mass), c.mass[n-1])
	fmt.Fprintf(b, "  headroom      %s  %.0f%%   (last %d frames)\n", spark(c.head), c.head[n-1]*100, n)
	b.WriteByte('\n')
}

func (c *console) qualityPanel(b *bytes.Buffer, q obs.LedgerSnapshot) {
	if q.Last != nil {
		r := q.Last
		fmt.Fprintf(b, "  last op  %s", r.Key())
		if r.Iter > 0 {
			fmt.Fprintf(b, " iter %d", r.Iter)
		}
		fmt.Fprintf(b, "  %s -> %s nodes  mass %.4f -> %.4f (retained %.4f)",
			humanCount(float64(r.SizeIn)), humanCount(float64(r.SizeOut)),
			r.MassIn, r.MassOut, r.MassRetained)
		if r.Abort != "" {
			fmt.Fprintf(b, "  ABORT: %s", r.Abort)
		}
		b.WriteString("\n\n")
	}
	if q.Ops > 0 {
		indented(b, func(w io.Writer) { q.WriteReport(w) })
		b.WriteByte('\n')
	}
}

// spark renders values as a unicode sparkline, one cell per value, scaled
// to their min/max.
func spark(vals []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range vals {
		// A flat series renders mid-level rather than hugging the floor.
		i := len(levels) / 2
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		sb.WriteRune(levels[i])
	}
	return sb.String()
}

// bar renders a 0..1 fraction as a fixed-width meter.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", fill) + strings.Repeat("-", width-fill) + "]"
}

// humanCount renders a count with k/M suffixes.
func humanCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// indented writes f's output with a two-space indent per line.
func indented(b *bytes.Buffer, f func(io.Writer)) {
	var tmp bytes.Buffer
	f(&tmp)
	for _, line := range strings.Split(strings.TrimRight(tmp.String(), "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
}
