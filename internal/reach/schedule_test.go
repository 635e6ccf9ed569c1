package reach

import (
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
)

// compileTree builds a model on a manager whose worker count selects the
// pairwise-tree image schedule.
func compileTree(t *testing.T, nl *circuit.Netlist) *circuit.Compiled {
	t.Helper()
	cfg := bdd.DefaultConfig()
	cfg.Workers = 2
	c, err := circuit.Compile(nl, circuit.CompileOptions{BDDConfig: &cfg})
	if err != nil {
		t.Fatalf("%s: %v", nl.Name, err)
	}
	return c
}

// evalStates compares two state predicates living on different managers by
// exhaustive evaluation over the state bits (inputs pinned to false; the
// sets are over present-state variables only).
func sameStateSet(chain, tree *circuit.Compiled, fs, fp bdd.Ref) (bool, []bool) {
	k := len(chain.StateVars)
	for i := 0; i < 1<<uint(k); i++ {
		as := make([]bool, chain.M.NumVars())
		ap := make([]bool, tree.M.NumVars())
		st := make([]bool, k)
		for j := 0; j < k; j++ {
			bit := i>>uint(j)&1 == 1
			st[j] = bit
			as[chain.StateVars[j]] = bit
			ap[tree.StateVars[j]] = bit
		}
		if chain.M.Eval(fs, as) != tree.M.Eval(fp, ap) {
			return false, st
		}
	}
	return true, nil
}

// TestTreeImageMatchesChain: the pairwise-tree image and the cluster chain
// compute the same exact image, checked state by state across two managers
// on every step of a short traversal.
func TestTreeImageMatchesChain(t *testing.T) {
	for name, nl := range map[string]*circuit.Netlist{
		"counter": counterNetlist(6),
		"s1269":   model.S1269(model.S1269Small()),
		"s3330":   model.S3330(model.S3330Small()),
	} {
		chain := compile(t, nl)
		tree := compileTree(t, nl)
		trS, err := NewTR(chain, DefaultTROptions())
		if err != nil {
			t.Fatal(err)
		}
		trP, err := NewTR(tree, DefaultTROptions())
		if err != nil {
			t.Fatal(err)
		}
		var stS, stP ImageStats
		fs := chain.M.Ref(chain.Init)
		fp := tree.M.Ref(tree.Init)
		for step := 0; step < 6; step++ {
			nextS := trS.Image(fs, nil, &stS)
			nextP := trP.Image(fp, nil, &stP)
			if ok, at := sameStateSet(chain, tree, nextS, nextP); !ok {
				t.Fatalf("%s: chain and tree image disagree at step %d, state %v",
					name, step, at)
			}
			chain.M.Deref(fs)
			tree.M.Deref(fp)
			fs, fp = nextS, nextP
		}
		chain.M.Deref(fs)
		tree.M.Deref(fp)
		if stP.AndExists == 0 {
			t.Fatalf("%s: tree schedule performed no relational products", name)
		}
		if err := tree.M.DebugCheck(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trS.Release()
		trP.Release()
		chain.Release()
		tree.Release()
	}
}

// TestTreeBFSMatchesChain: full reachability with the tree schedule
// converges to the same state count and iteration count as with the chain.
func TestTreeBFSMatchesChain(t *testing.T) {
	nl := model.S5378(model.S5378Small())
	chain := compile(t, nl)
	tree := compileTree(t, nl)
	trS, err := NewTR(chain, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	trP, err := NewTR(tree, DefaultTROptions())
	if err != nil {
		t.Fatal(err)
	}
	resS := trS.BFS(chain.Init, Options{})
	resP := trP.BFS(tree.Init, Options{})
	if resS.States != resP.States {
		t.Fatalf("reachable states: chain %v, tree %v", resS.States, resP.States)
	}
	if resS.Iterations != resP.Iterations {
		t.Fatalf("iterations: chain %d, tree %d", resS.Iterations, resP.Iterations)
	}
	if ok, at := sameStateSet(chain, tree, resS.Reached, resP.Reached); !ok {
		t.Fatalf("reached sets disagree at state %v", at)
	}
	chain.M.Deref(resS.Reached)
	tree.M.Deref(resP.Reached)
	if err := tree.M.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	trS.Release()
	trP.Release()
	chain.Release()
	tree.Release()
}
