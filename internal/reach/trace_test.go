package reach

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

// TestHighDensitySubsetTraceEvents drives the high-density traversal on a
// manager whose sink traces into a buffer and checks that every
// subsetting decision point emits a reach.subset event whose frontier
// sizes match what the subsetter actually saw, and that the per-iteration
// spans cover every traversal iteration with the right frontier sizes.
func TestHighDensitySubsetTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewSink(obs.NewRegistry(), obs.NewTracer(&buf))
	nl := model.S1269(model.S1269Small())
	c, err := circuit.Compile(nl, circuit.CompileOptions{BDDConfig: &bdd.Config{Observer: sink}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()

	// Wrap the subsetter so the test has ground truth for each call.
	type subsetCall struct{ before, threshold, after int }
	var calls []subsetCall
	base := RUASubsetter(1.0)
	sub := func(m *bdd.Manager, f bdd.Ref, threshold int) bdd.Ref {
		r := base(m, f, threshold)
		calls = append(calls, subsetCall{m.DagSize(f), threshold, m.DagSize(r)})
		return r
	}

	const threshold = 20
	res := tr.HighDensity(c.Init, Options{Subset: sub, Threshold: threshold})
	defer c.M.Deref(res.Reached)
	if !res.Completed {
		t.Fatal("traversal did not complete")
	}
	if len(calls) == 0 {
		t.Fatal("subsetter was never invoked")
	}

	sum, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	if got := sum.ByName["reach.iteration"]; got != res.Iterations {
		t.Fatalf("reach.iteration spans = %d, want one per iteration (%d)", got, res.Iterations)
	}
	if got := sum.ByName["reach.closure"]; got != res.Closure {
		t.Fatalf("reach.closure spans = %d, want %d", got, res.Closure)
	}
	if got := sum.ByName["reach.image"]; got != res.Stats.Images {
		t.Fatalf("reach.image spans = %d, want %d", got, res.Stats.Images)
	}

	// Replay the trace and pull out the subset events and iteration spans.
	attrInt := func(ev obs.Event, key string) int {
		v, ok := ev.Attrs[key].(float64) // encoding/json decodes numbers as float64
		if !ok {
			t.Fatalf("%s: attr %q missing or not a number: %v", ev.Name, key, ev.Attrs[key])
		}
		return int(v)
	}
	var subsets []subsetCall
	var iterFrontiers []int
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Name {
		case "reach.subset":
			subsets = append(subsets, subsetCall{
				before:    attrInt(ev, "frontier_before"),
				threshold: attrInt(ev, "threshold"),
				after:     attrInt(ev, "frontier_after"),
			})
		case "reach.iteration":
			iterFrontiers = append(iterFrontiers, attrInt(ev, "frontier_nodes"))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(subsets) != len(calls) {
		t.Fatalf("reach.subset events = %d, want one per subsetter call (%d)", len(subsets), len(calls))
	}
	for i, want := range calls {
		if subsets[i] != want {
			t.Fatalf("subset event %d = %+v, want %+v (sizes as the subsetter saw them)", i, subsets[i], want)
		}
		if subsets[i].threshold != threshold {
			t.Fatalf("subset event %d threshold = %d, want %d", i, subsets[i].threshold, threshold)
		}
	}

	// Iteration spans emit at End, so span k's frontier belongs to the k-th
	// iteration in order: the first frontier is the initial states, and
	// every later one is the previous subsetter's output.
	if len(iterFrontiers) != res.Iterations {
		t.Fatalf("parsed %d iteration spans, want %d", len(iterFrontiers), res.Iterations)
	}
	if want := c.M.DagSize(c.Init); iterFrontiers[0] != want {
		t.Fatalf("iteration 1 frontier_nodes = %d, want |init| = %d", iterFrontiers[0], want)
	}
	for k := 1; k < len(iterFrontiers); k++ {
		if want := calls[k-1].after; iterFrontiers[k] != want {
			t.Fatalf("iteration %d frontier_nodes = %d, want previous subset output %d",
				k+1, iterFrontiers[k], want)
		}
	}
}

// TestTraversalWithoutTracerEmitsNothing: a manager built without an
// observer has no sink, so its traversal runs with a nil tracer and ledger
// and allocates no spans or records (the zero Config stays zero-overhead),
// whatever other managers in the process are observed.
func TestTraversalWithoutTracerEmitsNothing(t *testing.T) {
	nl := model.S3330(model.S3330Small())
	c := compile(t, nl)
	defer c.Release()
	if k := obs.Of(c.M); k != nil {
		t.Fatalf("manager built with the zero Config reports to sink %p", k)
	}
	tr, err := NewTR(c, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	res := tr.BFS(c.Init, Options{})
	defer c.M.Deref(res.Reached)
	if !res.Completed {
		t.Fatal("BFS did not complete")
	}
}
