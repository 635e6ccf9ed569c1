package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry, plus
// a parser and linter for it. The writer makes /metrics scrapeable by any
// standard collector; the parser/linter back `obscheck -prom` and the
// session tests' scrapes.
//
// Histograms translate exactly: the registry's power-of-two buckets count
// observations v with 2^(i-1) <= v < 2^i, so for the integer values we
// observe (nanoseconds, node counts, permille ratios) the cumulative count
// through bucket i is precisely the number of observations <= 2^i - 1.
// Those are the le bounds emitted — no approximation crosses the wire.

// PromContentType is the Content-Type of the exposition format served on
// /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every registered metric in exposition format,
// families sorted by name. Counters become TYPE counter; gauges and
// gauge-funcs TYPE gauge; histograms TYPE histogram with cumulative
// le-buckets, _sum, and _count. Empty buckets are elided (le="+Inf" always
// remains), keeping the page proportional to what was actually observed.
func (r *Registry) WritePrometheus(w io.Writer) {
	WritePrometheusMulti(w, []LabeledRegistry{{R: r}})
}

// LabeledRegistry pairs a registry with a raw Prometheus label set (e.g.
// `tenant="acme"`, no braces) applied to every series it contributes.
type LabeledRegistry struct {
	Labels string
	R      *Registry
}

// promFamily is one metric family contributed by one registry: the writer
// emits the samples with that registry's labels already applied.
type promFamily struct {
	name, typ string
	write     func(io.Writer)
}

// promFamilies snapshots the registry's families with the given label set.
func (r *Registry) promFamilies(labels string) ([]promFamily, map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]promFamily, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.histos))
	series := func(name string) string {
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}
	for name, c := range r.counters {
		name, c := name, c
		fams = append(fams, promFamily{name, "counter", func(w io.Writer) {
			fmt.Fprintf(w, "%s %d\n", series(name), c.Value())
		}})
	}
	for name, g := range r.gauges {
		name, g := name, g
		fams = append(fams, promFamily{name, "gauge", func(w io.Writer) {
			fmt.Fprintf(w, "%s %d\n", series(name), g.Value())
		}})
	}
	for name, fn := range r.funcs {
		name, fn := name, fn
		fams = append(fams, promFamily{name, "gauge", func(w io.Writer) {
			v := fn()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(w, "%s %s\n", series(name), formatPromValue(v))
		}})
	}
	for name, h := range r.histos {
		name, h := name, h
		fams = append(fams, promFamily{name, "histogram", func(w io.Writer) {
			writePromHistogram(w, name, labels, h)
		}})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	return fams, help
}

// WritePrometheusMulti writes several registries onto one exposition page —
// the multi-tenant /metrics surface: a server-level registry unlabeled plus
// one registry per tenant labeled tenant="id". HELP and TYPE are emitted
// once per family name even when several registries contribute samples (the
// exposition format forbids repeating them); the first registry to declare
// a family fixes its type, so homogeneous naming across registries is the
// caller's job (per-tenant registries built by the same code trivially
// satisfy this).
func WritePrometheusMulti(w io.Writer, regs []LabeledRegistry) {
	type merged struct {
		name, typ string
		help      string
		writes    []func(io.Writer)
	}
	byName := make(map[string]*merged)
	order := []string{}
	for _, lr := range regs {
		if lr.R == nil {
			continue
		}
		fams, help := lr.R.promFamilies(lr.Labels)
		for _, f := range fams {
			mf, ok := byName[f.name]
			if !ok {
				mf = &merged{name: f.name, typ: f.typ}
				byName[f.name] = mf
				order = append(order, f.name)
			}
			if mf.typ != f.typ {
				// A name collision across registries with different kinds
				// would corrupt the family; drop the late-comer's samples.
				continue
			}
			if mf.help == "" {
				mf.help = help[f.name]
			}
			mf.writes = append(mf.writes, f.write)
		}
	}
	sort.Strings(order)
	for _, name := range order {
		f := byName[name]
		text := f.help
		if text == "" {
			text = "bddkit metric " + f.name
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapePromHelp(text))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, write := range f.writes {
			write(w)
		}
	}
}

func writePromHistogram(w io.Writer, name, labels string, h *Histogram) {
	counts := h.BucketCounts()
	bucket := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", name, le)
		}
		return fmt.Sprintf("%s_bucket{%s,le=%q}", name, labels, le)
	}
	series := func(suffix string) string {
		if labels == "" {
			return name + suffix
		}
		return name + suffix + "{" + labels + "}"
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if c == 0 {
			continue
		}
		// Upper bound of bucket i, inclusive for integer observations:
		// bucket 0 holds v <= 0, bucket i holds v < 2^i.
		var le int64
		if i > 0 {
			le = int64(1)<<uint(i) - 1
		}
		fmt.Fprintf(w, "%s %d\n", bucket(strconv.FormatInt(le, 10)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", bucket("+Inf"), cum)
	fmt.Fprintf(w, "%s %d\n", series("_sum"), h.sum.Load())
	fmt.Fprintf(w, "%s %d\n", series("_count"), h.count.Load())
}

// formatPromValue renders a float the way Prometheus clients expect:
// integral values without an exponent, everything else in shortest form.
func formatPromValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapePromHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// --- parsing -------------------------------------------------------------

// PromSample is one series sample: the family name, the raw label string
// (sorted as written, "" when unlabeled), and the value.
type PromSample struct {
	Name   string
	Labels string
	Value  float64
	Line   int
}

// Series returns the full series identity, name plus labels.
func (s PromSample) Series() string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

// PromFamily is one metric family: its declared type/help and samples in
// file order. For histograms the samples span the _bucket/_sum/_count
// suffixed series.
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// PromScrape is a parsed exposition page.
type PromScrape struct {
	Families map[string]*PromFamily
	Order    []string // family names in first-appearance order
}

// Family returns the named family, nil when absent.
func (p *PromScrape) Family(name string) *PromFamily {
	if p == nil {
		return nil
	}
	return p.Families[name]
}

// Value returns the value of an unlabeled series (or the first sample with
// the given name), with ok=false when the series is absent. Histogram
// sub-series are addressed by their suffixed name (e.g. "foo_count").
func (p *PromScrape) Value(name string) (float64, bool) {
	fam := p.Family(familyOf(name))
	if fam == nil {
		return 0, false
	}
	for _, s := range fam.Samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// familyOf strips the histogram sub-series suffixes so _bucket/_sum/_count
// samples group under their family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParsePrometheus parses text exposition format. It is strict about line
// shape (the linter depends on it) but does not validate semantics — that
// is LintPrometheus's job.
func ParsePrometheus(r io.Reader) (*PromScrape, error) {
	scrape := &PromScrape{Families: make(map[string]*PromFamily)}
	fam := func(name string) *PromFamily {
		f, ok := scrape.Families[name]
		if !ok {
			f = &PromFamily{Name: name}
			scrape.Families[name] = f
			scrape.Order = append(scrape.Order, name)
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			f := fam(fields[2])
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				if f.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, f.Name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, f.Name)
				}
				f.Type = fields[3]
			} else {
				if f.Help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, f.Name)
				}
				if len(fields) == 4 {
					f.Help = fields[3]
				} else {
					f.Help = " " // present but empty
				}
			}
			continue
		}
		sample, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		sample.Line = lineNo
		f := fam(familyOf(sample.Name))
		f.Samples = append(f.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return scrape, nil
}

func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.IndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("malformed labels in %q", line)
		}
		s.Name = rest[:i]
		s.Labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// --- linting -------------------------------------------------------------

// LintPrometheus checks one parsed scrape for exposition-format problems
// and returns them as human-readable strings (empty = clean):
//
//   - duplicate series (same name + label set appearing twice),
//   - samples whose family has no TYPE or no HELP line,
//   - unknown TYPE values,
//   - negative or non-finite counter values,
//   - histograms whose le-buckets are non-cumulative, lack le="+Inf", or
//     disagree with their _count.
func LintPrometheus(scrape *PromScrape) []string {
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, name := range scrape.Order {
		f := scrape.Families[name]
		if len(f.Samples) == 0 {
			addf("family %s: HELP/TYPE declared but no samples", name)
			continue
		}
		if f.Type == "" {
			addf("family %s: missing # TYPE line", name)
		}
		if f.Help == "" {
			addf("family %s: missing # HELP line", name)
		}
		switch f.Type {
		case "", "counter", "gauge", "histogram", "summary", "untyped":
		default:
			addf("family %s: unknown type %q", name, f.Type)
		}
		seen := make(map[string]int)
		for _, s := range f.Samples {
			key := s.Series()
			if prev, dup := seen[key]; dup {
				addf("series %s: duplicate sample (lines %d and %d)", key, prev, s.Line)
			}
			seen[key] = s.Line
		}
		if f.Type == "counter" {
			for _, s := range f.Samples {
				if s.Value < 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					addf("counter %s: invalid value %v (line %d)", s.Series(), s.Value, s.Line)
				}
			}
		}
		if f.Type == "histogram" {
			problems = append(problems, lintPromHistogram(f)...)
		}
	}
	return problems
}

// lintPromHistogram checks bucket monotonicity per label set: a labeled
// exposition (one histogram family, one series per tenant) restarts its
// le ladder for each label combination, so the cumulative checks group by
// the sample's labels with le stripped.
func lintPromHistogram(f *PromFamily) []string {
	var problems []string
	type histState struct {
		prevCum   float64
		prevLe    float64
		infCum    float64
		count     float64
		sawBucket bool
	}
	states := make(map[string]*histState)
	order := []string{}
	at := func(key string) *histState {
		st, ok := states[key]
		if !ok {
			st = &histState{prevLe: math.Inf(-1), infCum: math.NaN(), count: math.NaN()}
			states[key] = st
			order = append(order, key)
		}
		return st
	}
	describe := func(key string) string {
		if key == "" {
			return f.Name
		}
		return f.Name + "{" + key + "}"
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			key := stripPromLabel(s.Labels, "le")
			st := at(key)
			st.sawBucket = true
			leStr := promLabelValue(s.Labels, "le")
			if leStr == "" {
				problems = append(problems, fmt.Sprintf("histogram %s: bucket without le label (line %d)", describe(key), s.Line))
				continue
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					problems = append(problems, fmt.Sprintf("histogram %s: bad le %q (line %d)", describe(key), leStr, s.Line))
					continue
				}
				le = v
			}
			if le <= st.prevLe {
				problems = append(problems, fmt.Sprintf("histogram %s: le %q out of order (line %d)", describe(key), leStr, s.Line))
			}
			if s.Value < st.prevCum {
				problems = append(problems, fmt.Sprintf("histogram %s: bucket le=%q count %v below previous %v (line %d)",
					describe(key), leStr, s.Value, st.prevCum, s.Line))
			}
			st.prevLe, st.prevCum = le, s.Value
			if math.IsInf(le, 1) {
				st.infCum = s.Value
			}
		case f.Name + "_count":
			at(s.Labels).count = s.Value
		}
	}
	for _, key := range order {
		st := states[key]
		if st.sawBucket && math.IsNaN(st.infCum) {
			problems = append(problems, fmt.Sprintf("histogram %s: missing le=\"+Inf\" bucket", describe(key)))
		}
		if !math.IsNaN(st.infCum) && !math.IsNaN(st.count) && st.infCum != st.count {
			problems = append(problems, fmt.Sprintf("histogram %s: le=\"+Inf\" bucket %v != _count %v", describe(key), st.infCum, st.count))
		}
	}
	return problems
}

// stripPromLabel removes one label (and its value) from a raw label string,
// keeping the rest in written order.
func stripPromLabel(labels, key string) string {
	if labels == "" {
		return ""
	}
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	for _, part := range parts {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) == 2 && kv[0] == key {
			continue
		}
		kept = append(kept, strings.TrimSpace(part))
	}
	return strings.Join(kept, ",")
}

// promLabelValue extracts one label's (unescaped) value from a raw label
// string like `le="255",job="x"`.
func promLabelValue(labels, key string) string {
	for _, part := range strings.Split(labels, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) == 2 && kv[0] == key {
			return strings.Trim(kv[1], `"`)
		}
	}
	return ""
}

// CheckCounterMonotonic compares two scrapes of the same process (prev
// taken before cur) and reports counter series that went backwards —
// the non-monotonicity lint `obscheck -prom A B` applies. Series present
// in only one scrape are fine (registration happens lazily).
func CheckCounterMonotonic(prev, cur *PromScrape) []string {
	var problems []string
	for _, name := range cur.Order {
		f := cur.Families[name]
		if f.Type != "counter" {
			continue
		}
		pf := prev.Family(name)
		if pf == nil {
			continue
		}
		prevVals := make(map[string]float64, len(pf.Samples))
		for _, s := range pf.Samples {
			prevVals[s.Series()] = s.Value
		}
		for _, s := range f.Samples {
			if pv, ok := prevVals[s.Series()]; ok && s.Value < pv {
				problems = append(problems, fmt.Sprintf("counter %s: went backwards %v -> %v", s.Series(), pv, s.Value))
			}
		}
	}
	return problems
}
