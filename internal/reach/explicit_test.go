package reach

import (
	"testing"

	"bddkit/internal/circuit"
	"bddkit/internal/model"
)

// explicitReachable enumerates the exact reachable state set of a small
// netlist by brute-force breadth-first search over the simulator — the
// ground truth the symbolic engine is validated against.
func explicitReachable(t *testing.T, nl *circuit.Netlist) map[uint64]bool {
	t.Helper()
	nLatches := len(nl.Latches)
	nInputs := len(nl.Inputs)
	if nLatches > 24 || nInputs > 12 {
		t.Fatalf("model too large for explicit search: %d latches, %d inputs", nLatches, nInputs)
	}
	sim, err := circuit.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(state []bool) uint64 {
		var v uint64
		for i, b := range state {
			if b {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	decode := func(v uint64) []bool {
		out := make([]bool, nLatches)
		for i := range out {
			out[i] = v>>uint(i)&1 == 1
		}
		return out
	}
	sim.Reset()
	init := encode(sim.State())
	seen := map[uint64]bool{init: true}
	queue := []uint64{init}
	in := make([]bool, nInputs)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for w := 0; w < 1<<uint(nInputs); w++ {
			for i := range in {
				in[i] = w>>uint(i)&1 == 1
			}
			sim.SetState(decode(cur))
			sim.Step(in)
			next := encode(sim.State())
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

// TestSymbolicMatchesExplicit: the symbolic reached set equals brute-force
// enumeration, state for state, on every small model.
func TestSymbolicMatchesExplicit(t *testing.T) {
	if testing.Short() {
		t.Skip("explicit enumeration is slow; skipped with -short")
	}
	models := map[string]*circuit.Netlist{
		"counter":     counterNetlist(4),
		"s1269-small": model.S1269(model.S1269Small()),
		"am2910-tiny": model.Am2910(model.Am2910Config{Width: 3, StackDepth: 2}),
		"s5378-small": model.S5378(model.S5378Small()),
		"s3330-small": model.S3330(model.S3330Small()),
	}
	for name, nl := range models {
		explicit := explicitReachable(t, nl)
		c := compile(t, nl)
		tr, err := NewTR(c, DefaultTROptions())
		if err != nil {
			t.Fatal(err)
		}
		res := tr.BFS(c.Init, Options{})
		if !res.Completed {
			t.Fatalf("%s: symbolic BFS did not complete", name)
		}
		if int(res.States) != len(explicit) {
			t.Fatalf("%s: symbolic %v states, explicit %d", name, res.States, len(explicit))
		}
		// Every explicit state must satisfy the symbolic predicate, and
		// the counts matching makes it a bijection.
		nLatches := len(nl.Latches)
		assignment := make([]bool, c.M.NumVars())
		for v := range explicit {
			for i := 0; i < nLatches; i++ {
				assignment[c.StateVars[i]] = v>>uint(i)&1 == 1
			}
			if !c.M.Eval(res.Reached, assignment) {
				t.Fatalf("%s: explicit state %b missing from symbolic set", name, v)
			}
		}
		c.M.Deref(res.Reached)
		tr.Release()
		c.Release()
	}
}
