package main

import (
	"fmt"
	"math/big"
	"testing"

	"bddkit/internal/circuit"
)

// explicitStepLimit bounds explicit-state search: reachable states times
// input vectors, the number of simulator steps the search takes.
const explicitStepLimit = 1 << 24

// TestTraversalGoldensExplicit confirms the reachable-state counts in
// goldens.json by explicit-state breadth-first search with
// circuit.NewSimulator, which shares no code with the symbolic traversal,
// for every model whose search fits in explicitStepLimit steps.
func TestTraversalGoldensExplicit(t *testing.T) {
	if testing.Short() {
		t.Skip("explicit-state search takes about two minutes")
	}
	confirmed := 0
	for _, tm := range traversalModels {
		nl := tm.netlist()
		want, ok := new(big.Int).SetString(goldens.Traversal[tm.name], 10)
		if !ok {
			t.Fatalf("%s: no recorded state count", tm.name)
		}
		steps := new(big.Int).Lsh(want, uint(len(nl.Inputs)))
		if steps.Cmp(big.NewInt(explicitStepLimit)) > 0 {
			t.Logf("%s: %v states x 2^%d inputs is beyond explicit search", tm.name, want, len(nl.Inputs))
			continue
		}
		got, err := explicitReach(nl)
		if err != nil {
			t.Fatal(err)
		}
		if big.NewInt(int64(got)).Cmp(want) != 0 {
			t.Errorf("%s: explicit search reaches %d states, goldens.json records %v", tm.name, got, want)
		}
		confirmed++
	}
	if confirmed == 0 {
		t.Error("no traversal model is within explicit-search range")
	}
}

// explicitReach counts the states reachable from the netlist's initial
// state under every input vector.
func explicitReach(nl *circuit.Netlist) (int, error) {
	if len(nl.Latches) > 64 || len(nl.Inputs) > 30 {
		return 0, fmt.Errorf("%s: %d latches, %d inputs", nl.Name, len(nl.Latches), len(nl.Inputs))
	}
	sim, err := circuit.NewSimulator(nl)
	if err != nil {
		return 0, err
	}
	pack := func(state []bool) uint64 {
		var k uint64
		for i, v := range state {
			if v {
				k |= 1 << i
			}
		}
		return k
	}
	init := sim.State()
	seen := map[uint64]bool{pack(init): true}
	frontier := [][]bool{init}
	inputs := make([]bool, len(nl.Inputs))
	for len(frontier) > 0 {
		var next [][]bool
		for _, st := range frontier {
			for v := 0; v < 1<<len(nl.Inputs); v++ {
				for i := range inputs {
					inputs[i] = v>>i&1 == 1
				}
				sim.SetState(st)
				sim.Step(inputs)
				ns := sim.State()
				if k := pack(ns); !seen[k] {
					seen[k] = true
					next = append(next, ns)
				}
			}
		}
		frontier = next
	}
	return len(seen), nil
}
