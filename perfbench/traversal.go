package main

// The traversal workload is Table 1 at mid size: four sequential models,
// each traversed by BFS, HD+RUA and HD+SP on a fresh Workers=1 manager with
// auto-reorder on, as bench.RunTable1 runs them. The image step
// (AndExists), sifting and GC do most of the work; approximation runs only
// as the frontier subsetter, and decomposition and serving do not run.
//
// A pass runs the twelve traversals in a seed-shuffled order; the set-up
// of each (netlist generation, compilation, transition relation) runs just
// before it, and a pass's set-up time is their sum. One request is one
// traversal. Every traversal must
// complete within its budget and reach exactly the state count recorded in
// goldens.json, so the three methods also agree with each other.

import (
	"fmt"
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/obs"
	"bddkit/internal/reach"
)

// traversalBudget bounds one traversal; a traversal that exhausts it
// counts as failed.
const traversalBudget = time.Minute

type traversalModel struct {
	name        string
	netlist     func() *circuit.Netlist
	spThreshold int
}

// traversalModels are the s3330, s1269, s5378 and am2910 analogues at the
// sizes where each traversal takes 0.05–1 s on a 2-core machine.
var traversalModels = []traversalModel{
	{"s3330", func() *circuit.Netlist {
		return model.S3330(model.S3330Config{Word: 5, FifoDepth: 3, CrcBits: 6})
	}, 200},
	{"s1269", func() *circuit.Netlist { return model.S1269(model.S1269Config{Width: 5}) }, 200},
	{"s5378", func() *circuit.Netlist { return model.S5378(model.S5378Config{Units: 4, UnitWidth: 4}) }, 200},
	{"am2910", func() *circuit.Netlist {
		return model.Am2910(model.Am2910Config{Width: 4, StackDepth: 2})
	}, 100},
}

var traversalMethods = []string{"bfs", "hd_rua", "hd_sp"}

// traverse runs one method on a prepared transition relation.
func traverse(tr *reach.TR, init bdd.Ref, m traversalModel, method string) reach.Result {
	switch method {
	case "bfs":
		return tr.BFS(init, reach.Options{Budget: traversalBudget})
	case "hd_rua":
		return tr.HighDensity(init, reach.Options{
			Subset: reach.RUASubsetter(1.0), Threshold: 0, Budget: traversalBudget,
		})
	default:
		return tr.HighDensity(init, reach.Options{
			Subset: reach.SPSubsetter(), Threshold: m.spThreshold, Budget: traversalBudget,
		})
	}
}

type traversalJob struct {
	model  traversalModel
	method string
	c      *circuit.Compiled
	tr     *reach.TR
}

// prepareTraversal is the set-up of one traversal: netlist generation
// (once per model and pass, kept in nets), compilation onto a fresh
// manager, and transition-relation construction.
func prepareTraversal(root *span, nets map[string]*circuit.Netlist, tm traversalModel, method string) (traversalJob, error) {
	nl := nets[tm.name]
	if nl == nil {
		sp := root.child("model.netlist", obs.Str("ckt", tm.name))
		nl = tm.netlist()
		sp.end()
		nets[tm.name] = nl
	}
	call := beginCall(root, "circuit.compile", nil, obs.Str("ckt", tm.name), obs.Str("method", method))
	c, err := circuit.Compile(nl, circuit.CompileOptions{
		AutoReorder: true,
		BDDConfig:   &bdd.Config{Workers: 1},
	})
	call.end()
	if err != nil {
		return traversalJob{}, fmt.Errorf("compile %s: %w", tm.name, err)
	}
	call = beginCall(root, "reach.tr_build", c.M, obs.Str("ckt", tm.name), obs.Str("method", method))
	tr, err := reach.NewTR(c, reach.DefaultTROptions())
	call.end()
	if err != nil {
		return traversalJob{}, fmt.Errorf("transition relation of %s: %w", tm.name, err)
	}
	return traversalJob{model: tm, method: method, c: c, tr: tr}, nil
}

func runTraversal(cfg *runConfig) (*outcome, error) {
	out := &outcome{workers: 1}
	type pair struct {
		model  traversalModel
		method string
	}
	var pairs []pair
	for _, tm := range traversalModels {
		for _, method := range traversalMethods {
			pairs = append(pairs, pair{tm, method})
		}
	}
	out.calibrate()
	start := time.Now()
	for pass := 0; !cfg.enough(start, pass); pass++ {
		passStart := time.Now()
		log := cfg.passLog(pass)
		cfg.rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		nets := make(map[string]*circuit.Netlist)
		root := log.begin(nil, passSpan, obs.Int("pass", pass))
		var setupTime, passTime time.Duration
		var lat []float64
		for _, p := range pairs {
			out.calibrateDue()
			t0 := time.Now()
			setup := log.begin(nil, setupSpan, obs.Int("setup", pass))
			j, err := prepareTraversal(setup, nets, p.model, p.method)
			setup.end()
			setupTime += time.Since(t0)
			if err != nil {
				return nil, err
			}

			call := beginCall(root, "reach."+j.model.name+"."+j.method, j.c.M)
			before := time.Now()
			res := traverse(j.tr, j.c.Init, j.model, j.method)
			el := time.Since(before)
			if call.s != nil {
				call.end(
					obs.Dur("image_ns", res.Stats.ImageTime),
					obs.Dur("subset_ns", res.Stats.SubsetTime),
					obs.Dur("closure_ns", res.Stats.ClosureTime),
					obs.Int("iterations", res.Iterations),
					obs.Int("and_exists", res.Stats.AndExists),
					obs.Int("peak_product", res.Stats.PeakProduct),
				)
			}
			passTime += el
			lat = append(lat, millis(el))

			out.verdict.record(checkTraversal(j, res))
			j.c.M.Deref(res.Reached)
			j.tr.Release()
			j.c.Release()
		}
		root.end()
		out.addPass(passStart, log != nil, setupTime, passTime, lat)
	}
	out.calibrate()
	return out, nil
}

func checkTraversal(j traversalJob, res reach.Result) error {
	if !res.Completed {
		return fmt.Errorf("%s %s: not completed within %v (%s)", j.model.name, j.method, traversalBudget, res.Abort)
	}
	want, ok := goldens.Traversal[j.model.name]
	if !ok {
		return fmt.Errorf("%s: no recorded state count", j.model.name)
	}
	if res.StatesExact == nil || res.StatesExact.String() != want {
		return fmt.Errorf("%s %s: reached %v states, want %s", j.model.name, j.method, res.StatesExact, want)
	}
	return nil
}
