package main

// The combinatorial workload builds bdd-benchmark-style instances from
// scratch with gauntlet.Build, each on a fresh Workers=2 manager, then
// counts its solutions exactly, counts them weighted, and draws uniform
// samples. Apply/ITE on the parallel engine, with unique-table growth,
// dominates; counting is a small share. It is the only workload on the
// parallel kernels, so a kernel change is measured on both the serial
// path (traversal, corpus, service) and the parallel one.
//
// A set-up creates the managers; a pass runs every instance in a
// seed-shuffled order, and one request is one instance (build, count,
// weighted count, samples). The sample streams are seeded from --seed.
// Counts must equal oracle.ExpectedCount, the weighted count at bias 1/2
// must equal that count over 2^vars, and every sample must satisfy the
// function under oracle.Eval.

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
	"bddkit/internal/obs"
	"bddkit/internal/oracle"
)

const (
	combinatorialWorkers = 2
	samplesPerInstance   = 256
)

// combinatorialInstances are queens 8 and 9, life 4x4, hamilton-grid and
// hamilton-knight 3x4 (the knight's graph has no Hamiltonian cycle), and
// the 10-bit adder miter with a fault and without one (which proves the
// adders equivalent). An odd number of requests per pass puts the median
// request inside one instance's latencies rather than in the gap between
// two.
var combinatorialInstances = []gauntlet.Params{
	{Family: gauntlet.FamilyQueens, N: 8},
	{Family: gauntlet.FamilyQueens, N: 9},
	{Family: gauntlet.FamilyLife, Rows: 4, Cols: 4},
	{Family: gauntlet.FamilyHamiltonGrid, Rows: 3, Cols: 4},
	{Family: gauntlet.FamilyHamiltonKnight, Rows: 3, Cols: 4},
	{Family: gauntlet.FamilyEquivAdder, N: 10, Fault: true},
	{Family: gauntlet.FamilyEquivAdder, N: 10},
}

// buildSpan names the span of an instance's build by family group.
func buildSpan(p gauntlet.Params) string {
	switch p.Family {
	case gauntlet.FamilyQueens:
		return "gauntlet.queens.build"
	case gauntlet.FamilyLife:
		return "gauntlet.life.build"
	case gauntlet.FamilyEquivAdder:
		return "gauntlet.adder.build"
	default:
		return "gauntlet.hamilton.build"
	}
}

// instanceRun is what one instance produced, kept for the checks.
type instanceRun struct {
	p        gauntlet.Params
	m        *bdd.Manager
	f        bdd.Ref
	n        *big.Int
	weighted float64
	samples  [][]bool
}

// solve is one request: build, exact count, weighted count and samples.
func solve(root *span, m *bdd.Manager, p gauntlet.Params, sampleSeed int64) (instanceRun, error) {
	r := instanceRun{p: p, m: m}
	c := beginCall(root, buildSpan(p), m, obs.Str("instance", p.Name()))
	f, err := gauntlet.Build(m, p)
	c.end()
	if err != nil {
		return r, fmt.Errorf("build %s: %w", p.Name(), err)
	}
	r.f = f
	c = beginCall(root, "count.minterms", m, obs.Str("instance", p.Name()))
	r.n, err = count.Minterms(m, f, p.Vars())
	c.end()
	if err != nil {
		return r, fmt.Errorf("count %s: %w", p.Name(), err)
	}
	c = beginCall(root, "count.weighted", m, obs.Str("instance", p.Name()))
	r.weighted = count.Weighted(m, f, func(int) float64 { return 0.5 })
	c.end()
	if r.n.Sign() == 0 {
		return r, nil // nothing to sample
	}
	c = beginCall(root, "count.sample", m, obs.Str("instance", p.Name()))
	s, err := count.NewSampler(m, f, p.Vars(), sampleSeed)
	if err == nil {
		for i := 0; i < samplesPerInstance; i++ {
			r.samples = append(r.samples, s.Sample())
		}
	}
	c.end(obs.Int("samples", len(r.samples)))
	if err != nil {
		return r, fmt.Errorf("sampler %s: %w", p.Name(), err)
	}
	return r, nil
}

// check records the three checked outputs of one instance.
func (r instanceRun) check(v *verdict, want *big.Int) {
	name := r.p.Name()
	if r.n.Cmp(want) != 0 {
		v.record(fmt.Errorf("%s: %v solutions, want %v", name, r.n, want))
	} else {
		v.record(nil)
	}
	exp, _ := new(big.Float).SetInt(want).Float64()
	exp = math.Ldexp(exp, -r.p.Vars())
	if math.Abs(r.weighted-exp) > 1e-12*math.Max(exp, math.SmallestNonzeroFloat64) {
		v.record(fmt.Errorf("%s: weighted count %g at bias 1/2, want %g", name, r.weighted, exp))
	} else {
		v.record(nil)
	}
	var err error
	for _, a := range r.samples {
		if !oracle.Eval(r.m, r.f, a) {
			err = fmt.Errorf("%s: sample %v does not satisfy the function", name, a)
			break
		}
	}
	if want.Sign() > 0 && len(r.samples) != samplesPerInstance {
		err = fmt.Errorf("%s: %d samples, want %d", name, len(r.samples), samplesPerInstance)
	}
	v.record(err)
}

func runCombinatorial(cfg *runConfig) (*outcome, error) {
	out := &outcome{workers: combinatorialWorkers}
	want := make([]*big.Int, len(combinatorialInstances))
	for i, p := range combinatorialInstances {
		n, ok := oracle.ExpectedCount(p)
		if !ok {
			return nil, fmt.Errorf("%s has no independent solution count", p.Name())
		}
		want[i] = n
	}
	order := make([]int, len(combinatorialInstances))
	for i := range order {
		order[i] = i
	}
	out.calibrate()
	start := time.Now()
	for pass := 0; !cfg.enough(start, pass); pass++ {
		passStart := time.Now()
		log := cfg.passLog(pass)
		cfg.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		root := log.begin(nil, passSpan, obs.Int("pass", pass))
		var setupTime, passTime time.Duration
		var lat []float64
		for _, i := range order {
			p := combinatorialInstances[i]
			out.calibrateDue()
			t0 := time.Now()
			setup := log.begin(nil, setupSpan, obs.Int("setup", pass))
			sp := setup.child("bdd.new", obs.Str("instance", p.Name()))
			m := bdd.NewWithConfig(p.Vars(), bdd.Config{Workers: combinatorialWorkers})
			sp.end()
			setup.end()
			setupTime += time.Since(t0)

			t0 = time.Now()
			r, err := solve(root, m, p, cfg.rng.Int63())
			el := time.Since(t0)
			if err != nil {
				return nil, err
			}
			passTime += el
			lat = append(lat, millis(el))
			r.check(&out.verdict, want[i])
			m.Deref(r.f)
		}
		root.end()
		out.addPass(passStart, log != nil, setupTime, passTime, lat)
	}
	out.calibrate()
	return out, nil
}
