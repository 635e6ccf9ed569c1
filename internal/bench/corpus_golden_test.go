package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/decomp"
)

// opGolden is one operator's results on one corpus function: the DAG size
// and exact minterm count of each result BDD. Op "f" describes the input.
type opGolden struct {
	Fn       string   `json:"fn"`
	Op       string   `json:"op"`
	Nodes    []int    `json:"nodes"`
	Minterms []string `json:"minterms"`
}

// TestCorpusOperatorsGolden pins the Table 2–4 operators node for node on
// the small corpus: RUA, HB, SP, UA, C1 and C2 with the Table 2/3
// thresholds (HB, SP and C2 at |RUA(f)|), the Cofactor split, Disjoint and
// Band points each followed by Decompose, and McMillan's factors. Each
// result's DAG size and exact minterm count must match
// testdata/corpus_ops.golden.jsonl, one line per function and operator
// (rewrite it with -update).
func TestCorpusOperatorsGolden(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	defer Release(fns)
	var buf bytes.Buffer
	for _, fn := range fns {
		m, f := fn.M, fn.F
		record := func(op string, refs ...bdd.Ref) {
			g := opGolden{Fn: fn.Name, Op: op}
			for _, r := range refs {
				n, err := count.Minterms(m, r, m.NumVars())
				if err != nil {
					t.Fatalf("%s %s: %v", fn.Name, op, err)
				}
				g.Nodes = append(g.Nodes, m.DagSize(r))
				g.Minterms = append(g.Minterms, n.String())
			}
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		result := func(op string, refs ...bdd.Ref) {
			record(op, refs...)
			for _, r := range refs {
				m.Deref(r)
			}
		}
		record("f", f)
		rua := approx.RemapUnderApprox(m, f, 0, 1.0)
		th := m.DagSize(rua)
		result("rua", rua)
		result("hb", approx.HeavyBranch(m, f, th))
		result("sp", approx.ShortPaths(m, f, th))
		result("ua", approx.UnderApprox(m, f, 0, 0.5))
		result("c1", approx.Compound1(m, f, 0, 1.0))
		result("c2", approx.Compound2(m, f, th, 1.0))
		p := decomp.Cofactor(m, f)
		result("cofactor", p.G, p.H)
		p = decomp.Decompose(m, f, decomp.DisjointPoints(m, f, decomp.DefaultDisjointConfig()))
		result("disjoint", p.G, p.H)
		p = decomp.Decompose(m, f, decomp.BandPoints(m, f, decomp.DefaultBandConfig()))
		result("band", p.G, p.H)
		result("mcmillan", decomp.McMillan(m, f)...)
	}
	golden := filepath.Join("testdata", "corpus_ops.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d result lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\ngot  %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
