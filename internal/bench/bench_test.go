package bench

import (
	"math"
	"strings"
	"testing"

	"bddkit/internal/bdd"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("GeoMean(1,100) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	// Non-positive entries are skipped.
	if g := GeoMean([]float64{0, 4, 9}); math.Abs(g-6) > 1e-9 {
		t.Fatalf("GeoMean(0,4,9) = %v", g)
	}
}

func TestWinsTies(t *testing.T) {
	scores := [][]float64{
		{3, 1, 5}, // method 0
		{2, 1, 5}, // method 1
	}
	wins, ties := WinsTies(scores)
	if wins[0] != 1 || wins[1] != 0 {
		t.Fatalf("wins = %v", wins)
	}
	if ties[0] != 2 || ties[1] != 2 {
		t.Fatalf("ties = %v", ties)
	}
}

func TestSmallCorpusBuilds(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) == 0 {
		t.Fatal("small corpus is empty")
	}
	gauntletFns := 0
	for _, fn := range fns {
		if strings.HasPrefix(fn.Name, "gauntlet/") {
			// Family fixtures join unconditionally; the size filter only
			// prunes the random pool.
			gauntletFns++
			continue
		}
		if fn.Nodes < SmallCorpus().MinNodes {
			t.Fatalf("%s below threshold: %d", fn.Name, fn.Nodes)
		}
	}
	if want := len(SmallCorpus().Gauntlet); gauntletFns != want {
		t.Fatalf("corpus kept %d gauntlet fixtures, want %d", gauntletFns, want)
	}
	Release(fns)
}

// TestTable2Shape runs the Table 2 protocol on the small corpus and checks
// the qualitative shape the paper reports: every approximation produces
// fewer nodes than F, RUA's density at least matches F's (safety), and RUA
// accumulates the most density wins among the simple methods.
func TestTable2Shape(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	defer Release(fns)
	res := Table2(fns)
	byName := map[string]ApproxRow{}
	for _, r := range res.Rows {
		byName[r.Method] = r
	}
	f := byName["F"]
	for _, name := range []string{"HB", "SP", "UA", "RUA"} {
		if byName[name].Nodes >= f.Nodes {
			t.Errorf("%s did not shrink the corpus (%.1f vs %.1f nodes)", name, byName[name].Nodes, f.Nodes)
		}
	}
	if byName["RUA"].Density < f.Density {
		t.Errorf("RUA mean density below F: %g < %g", byName["RUA"].Density, f.Density)
	}
	best := "F"
	for _, name := range []string{"HB", "SP", "UA", "RUA"} {
		if byName[name].Wins > byName[best].Wins {
			best = name
		}
	}
	if best != "RUA" {
		t.Errorf("RUA is not the most frequent density winner (best = %s)", best)
	}
}

// TestTable3Shape: C1 must dominate RUA and C2 must dominate SP in the
// aggregate (the paper's "never loses" property).
func TestTable3Shape(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	defer Release(fns)
	t2 := Table2(fns)
	t3 := Table3(fns)
	get := func(res ApproxResult, name string) ApproxRow {
		for _, r := range res.Rows {
			if r.Method == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return ApproxRow{}
	}
	c1, rua := get(t3, "C1"), get(t2, "RUA")
	if c1.Nodes > rua.Nodes*1.0001 {
		t.Errorf("C1 mean nodes %f exceed RUA's %f", c1.Nodes, rua.Nodes)
	}
	if c1.Minterms < rua.Minterms*0.9999 {
		t.Errorf("C1 mean minterms %g below RUA's %g", c1.Minterms, rua.Minterms)
	}
	c2, sp := get(t3, "C2"), get(t2, "SP")
	if c2.Nodes > sp.Nodes*1.0001 {
		t.Errorf("C2 mean nodes %f exceed SP's %f", c2.Nodes, sp.Nodes)
	}
}

// TestTable4Shape: every method's factors must multiply back to f (checked
// inside decomp's own tests); here we check the harness produces sane
// aggregates and that all methods actually decompose.
func TestTable4Shape(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	defer Release(fns)
	res := Table4(fns, SmallCorpus().MinNodes)
	if res.Cases == 0 {
		t.Fatal("no corpus functions entered Table 4")
	}
	totalWins := 0
	for _, r := range res.Rows {
		if r.G <= 0 || r.H <= 0 || r.Shared <= 0 {
			t.Errorf("%s has degenerate aggregates: %+v", r.Method, r)
		}
		totalWins += r.Wins + r.Ties
	}
	if totalWins == 0 {
		t.Error("no wins or ties recorded")
	}
}

// TestAblationRUA: the full algorithm must not lose density to any
// crippled variant in the aggregate.
func TestAblationRUA(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	defer Release(fns)
	res := AblationRUA(fns)
	full := res.Rows[0]
	if full.Method != "RUA (full)" {
		t.Fatalf("unexpected row order: %v", res.Rows)
	}
	for _, r := range res.Rows[1:] {
		if r.Density > full.Density*1.0001 {
			t.Errorf("variant %s beats the full algorithm: %g > %g",
				r.Method, r.Density, full.Density)
		}
	}
	// Every variant is still a valid, safe underapproximation (checked in
	// the approx tests); here, the zero-only variant must be strictly
	// worse than full on this corpus, demonstrating that the new
	// replacement types contribute.
	zero := res.Rows[3]
	if zero.Density >= full.Density {
		t.Logf("warning: zero-only matches full density on this corpus (%g)", zero.Density)
	}
}

// TestAblationDecompPairing: the balanced pairing must win at least as
// often as straight pairing on the max-factor objective.
func TestAblationDecompPairing(t *testing.T) {
	fns, err := Build(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	defer Release(fns)
	rows := AblationDecompPairing(fns)
	if rows[0].Method != "straight" {
		t.Fatal("unexpected row order")
	}
	// The default (straight) must not be noticeably worse than the
	// skew-balancing variant — this is the measurement that made it the
	// default.
	if rows[0].Larger > rows[1].Larger*1.05 {
		t.Errorf("straight pairing noticeably worse: %g vs %g", rows[0].Larger, rows[1].Larger)
	}
}

// TestTable1SmallRuns executes the scaled-down Table 1 at Workers=1 and
// at Workers=2 and requires both engines to complete every traversal and
// to agree on what the table reports. HD iteration counts and final and
// peak node counts are not compared: the two runs reorder differently,
// which legitimately moves them.
func TestTable1SmallRuns(t *testing.T) {
	defer bdd.SetDefaultWorkers(1)
	var runs [2][]Table1Row
	for i, workers := range []int{1, 2} {
		bdd.SetDefaultWorkers(workers)
		rows, err := RunTable1(Table1Small())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		runs[i] = rows
	}
	serial, par := runs[0], runs[1]
	if len(serial) != len(par) {
		t.Fatalf("Workers=1 gave %d rows, Workers=2 gave %d", len(serial), len(par))
	}
	var parSTW int64
	for i, s := range serial {
		p := par[i]
		if s.Ckt != p.Ckt {
			t.Fatalf("row %d: circuit %s at Workers=1, %s at Workers=2", i, s.Ckt, p.Ckt)
		}
		if s.States <= 0 || s.States != p.States {
			t.Errorf("%s: states %g at Workers=1, %g at Workers=2", s.Ckt, s.States, p.States)
		}
		if s.BFS.Iterations != p.BFS.Iterations {
			t.Errorf("%s: BFS iterations %d at Workers=1, %d at Workers=2",
				s.Ckt, s.BFS.Iterations, p.BFS.Iterations)
		}
		for _, m := range []struct {
			name string
			s, p MethodResult
		}{{"BFS", s.BFS, p.BFS}, {"HD+RUA", s.RUA, p.RUA}, {"HD+SP", s.SP, p.SP}} {
			if !m.s.Done || !m.p.Done {
				t.Errorf("%s %s: done %v at Workers=1, %v at Workers=2", s.Ckt, m.name, m.s.Done, m.p.Done)
			}
			if m.s.States != m.p.States {
				t.Errorf("%s %s: states %g at Workers=1, %g at Workers=2", s.Ckt, m.name, m.s.States, m.p.States)
			}
			if m.s.STWCount != 0 {
				t.Errorf("%s %s: %d stop-the-world epochs at Workers=1", s.Ckt, m.name, m.s.STWCount)
			}
			parSTW += m.p.STWCount
		}
	}
	// Only a parallel manager counts stop-the-world epochs, so none at
	// Workers=2 means the worker count never reached the managers.
	if parSTW <= 0 {
		t.Error("no stop-the-world epochs at Workers=2: the runs were serial")
	}
}
