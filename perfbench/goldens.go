package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/reach"
)

// goldenFile is the layout of goldens.json: the expected outputs the
// workloads check against, recorded by -record-goldens.
type goldenFile struct {
	// Traversal maps each traversal model to its exact number of reachable
	// states.
	Traversal map[string]string `json:"traversal"`
	// Corpus is the bench.PaperCorpus() pool ranked by the cost of the ten
	// operators, cheapest first.
	Corpus []corpusGolden `json:"corpus"`
}

type corpusGolden struct {
	Name     string              `json:"name"`
	Nodes    int                 `json:"nodes"`
	Minterms string              `json:"minterms"`
	CostMS   float64             `json:"cost_ms"`
	Ops      map[string]opGolden `json:"ops"`
}

// opGolden describes one operator's result DAGs: one entry per result for
// the approximations, G and H for the two-way decompositions, and one per
// factor for McMillan's.
type opGolden struct {
	Nodes    []int    `json:"nodes"`
	Minterms []string `json:"minterms"`
}

//go:embed goldens.json
var goldensJSON []byte

var goldens = mustParseGoldens(goldensJSON)

func mustParseGoldens(b []byte) goldenFile {
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		panic(fmt.Sprintf("perfbench: goldens.json: %v", err))
	}
	return g
}

// recordGoldens recomputes goldens.json from the code under test. The
// traversal counts are taken from BFS and must agree with both
// high-density methods; goldens_test.go confirms them by explicit-state
// search where that is feasible.
func recordGoldens(path string) error {
	g := goldenFile{Traversal: make(map[string]string)}
	for _, tm := range traversalModels {
		nl := tm.netlist()
		var states string
		for _, method := range traversalMethods {
			c, err := circuit.Compile(nl, circuit.CompileOptions{AutoReorder: true, BDDConfig: &bdd.Config{Workers: 1}})
			if err != nil {
				return err
			}
			tr, err := reach.NewTR(c, reach.DefaultTROptions())
			if err != nil {
				return err
			}
			res := traverse(tr, c.Init, tm, method)
			if !res.Completed || res.StatesExact == nil {
				return fmt.Errorf("%s %s did not complete", tm.name, method)
			}
			if states == "" {
				states = res.StatesExact.String()
			} else if states != res.StatesExact.String() {
				return fmt.Errorf("%s: %s reached %v states, bfs %s", tm.name, method, res.StatesExact, states)
			}
			c.M.Deref(res.Reached)
			tr.Release()
			c.Release()
		}
		g.Traversal[tm.name] = states
		fmt.Fprintf(os.Stderr, "traversal %s: %s states\n", tm.name, states)
	}
	corpus, err := recordCorpus()
	if err != nil {
		return err
	}
	g.Corpus = corpus
	return writeGoldens(path, g)
}

// writeGoldens writes g with one corpus function per line, so a change to
// one function's goldens is a one-line diff.
func writeGoldens(path string, g goldenFile) error {
	trav, err := json.Marshal(g.Traversal)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n \"traversal\": %s,\n \"corpus\": [\n", trav)
	for i, fn := range g.Corpus {
		line, err := json.Marshal(fn)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(g.Corpus)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s%s\n", line, sep)
	}
	b.WriteString(" ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
