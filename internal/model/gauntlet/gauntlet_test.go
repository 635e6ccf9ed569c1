package gauntlet_test

import (
	"context"
	"math/big"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/model/gauntlet"
)

func countOf(t *testing.T, p gauntlet.Params) *big.Int {
	t.Helper()
	m, f, err := gauntlet.New(p, nil)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	defer m.Deref(f)
	c, err := count.Minterms(m, f, p.Vars())
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return c
}

// TestQueensSequence: the minterm counts must reproduce OEIS A000170.
func TestQueensSequence(t *testing.T) {
	want := []int64{1, 0, 0, 2, 10, 4, 40, 92}
	for n := 1; n <= len(want); n++ {
		c := countOf(t, gauntlet.Params{Family: gauntlet.FamilyQueens, N: n})
		if c.Int64() != want[n-1] {
			t.Errorf("queens%d count = %v, want %d", n, c, want[n-1])
		}
	}
}

// TestLifePredecessors: every minterm of the predecessor predicate must
// step to the target under explicit simulation, and the counts must match
// brute-force enumeration of all boards.
func TestLifePredecessors(t *testing.T) {
	const rows, cols = 3, 3
	target := gauntlet.DefaultLifeTarget(rows, cols)
	// Brute force: every 9-cell board that steps to the target.
	var want int64
	for bits := 0; bits < 1<<(rows*cols); bits++ {
		board := make([]bool, rows*cols)
		for i := range board {
			board[i] = bits&(1<<uint(i)) != 0
		}
		next := gauntlet.LifeStep(rows, cols, board)
		match := true
		for i := range next {
			if next[i] != target[i] {
				match = false
				break
			}
		}
		if match {
			want++
		}
	}
	p := gauntlet.Params{Family: gauntlet.FamilyLife, Rows: rows, Cols: cols}
	if c := countOf(t, p); c.Int64() != want {
		t.Fatalf("life%dx%d predecessors = %v, brute force = %d", rows, cols, c, want)
	}

	// Sampled predecessors must actually step to the target.
	m, f, err := gauntlet.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Deref(f)
	s, err := count.NewSampler(m, f, p.Vars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		board := s.Sample()
		next := gauntlet.LifeStep(rows, cols, board)
		for j := range next {
			if next[j] != target[j] {
				t.Fatalf("sampled board %d does not step to the target", i)
			}
		}
	}
}

// TestLifeGardenOfEden: a full 3x3 block has every cell overcrowded or
// newly born in ways no dead-boundary predecessor can produce — the count
// must be zero, flagging a garden of Eden.
func TestLifeGardenOfEden(t *testing.T) {
	target := make([]bool, 9)
	for i := range target {
		target[i] = true
	}
	p := gauntlet.Params{Family: gauntlet.FamilyLife, Rows: 3, Cols: 3, Target: target}
	if c := countOf(t, p); c.Sign() != 0 {
		t.Fatalf("full 3x3 block has %v predecessors, want 0 (garden of Eden)", c)
	}
}

// TestHamiltonianCounts: BDD minterm counts against explicit DFS cycle
// enumeration on the same graphs.
func TestHamiltonianCounts(t *testing.T) {
	cases := []struct {
		family     string
		rows, cols int
	}{
		{gauntlet.FamilyHamiltonGrid, 2, 2},
		{gauntlet.FamilyHamiltonGrid, 2, 3},
		{gauntlet.FamilyHamiltonGrid, 3, 3}, // odd grid: no cycle
		{gauntlet.FamilyHamiltonKnight, 3, 3},
	}
	for _, tc := range cases {
		var g gauntlet.Graph
		if tc.family == gauntlet.FamilyHamiltonGrid {
			g = gauntlet.GridGraph(tc.rows, tc.cols)
		} else {
			g = gauntlet.KnightGraph(tc.rows, tc.cols)
		}
		want := g.CountHamiltonianCycles()
		p := gauntlet.Params{Family: tc.family, Rows: tc.rows, Cols: tc.cols}
		if c := countOf(t, p); c.Int64() != want {
			t.Errorf("%s: BDD count = %v, DFS count = %d", p.Name(), c, want)
		}
	}
}

// TestEquivAdder: the fault-free miter must be identically zero (the two
// adders are equivalent — also confirmed via circuit.Equivalent), and the
// faulty miter's count must equal the closed-form distinguishing-pair
// count.
func TestEquivAdder(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		good := countOf(t, gauntlet.Params{Family: gauntlet.FamilyEquivAdder, N: n})
		if good.Sign() != 0 {
			t.Errorf("equiv-adder%d miter count = %v, want 0", n, good)
		}
		want := gauntlet.DistinguishingCount(n, true)
		bad := countOf(t, gauntlet.Params{Family: gauntlet.FamilyEquivAdder, N: n, Fault: true})
		if bad.Int64() != want {
			t.Errorf("equiv-adder%df miter count = %v, closed form = %d", n, bad, want)
		}
	}
	ra, cla := gauntlet.AdderPairNetlists(4, false)
	eq, _, err := circuit.Equivalent(ra, cla, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("circuit.Equivalent disagrees: fault-free adder pair reported inequivalent")
	}
	ra, cla = gauntlet.AdderPairNetlists(4, true)
	eq, mis, err := circuit.Equivalent(ra, cla, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("circuit.Equivalent disagrees: faulty adder pair reported equivalent")
	}
	if mis == nil {
		t.Fatal("inequivalent pair came back without a witness mismatch")
	}
}

func TestValidateRejectsPathological(t *testing.T) {
	bad := []gauntlet.Params{
		{Family: "nonesuch"},
		{Family: gauntlet.FamilyQueens, N: 0},
		{Family: gauntlet.FamilyQueens, N: 11},
		{Family: gauntlet.FamilyLife, Rows: 0, Cols: 3},
		{Family: gauntlet.FamilyLife, Rows: 7, Cols: 7},
		{Family: gauntlet.FamilyLife, Rows: 2, Cols: 2, Target: make([]bool, 3)},
		{Family: gauntlet.FamilyHamiltonGrid, Rows: 1, Cols: 1},
		{Family: gauntlet.FamilyHamiltonKnight, Rows: 4, Cols: 4},
		{Family: gauntlet.FamilyEquivAdder, N: 0},
		{Family: gauntlet.FamilyEquivAdder, N: 65},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted a pathological instance", p)
		}
	}
	for _, p := range gauntlet.SmallInstances() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: Validate rejected a smoke instance: %v", p.Name(), err)
		}
	}
}

func TestBuildRequiresRoom(t *testing.T) {
	m := bdd.New(3)
	if _, err := gauntlet.Build(m, gauntlet.Params{Family: gauntlet.FamilyQueens, N: 4}); err == nil {
		t.Fatal("Build on an undersized manager must fail")
	}
}

// TestQueensOneLiveCountAtEveryWorkerCount: a node that dies releases its
// children at once on either engine, so the live count that the node
// ceiling of Run reads is the same at every worker count. Queens 9 builds
// under a 200,000-node ceiling at Workers 1, 2 and 4 and ends with the
// same live count, peak and number of collections each time. A manager
// that kept a dropped cone counted as live until a collection would peak
// near 800,000 nodes here and hit the ceiling.
func TestQueensOneLiveCountAtEveryWorkerCount(t *testing.T) {
	p := gauntlet.Params{Family: gauntlet.FamilyQueens, N: 9}
	type counts struct {
		live, peak int
		gcs        int64
	}
	var want counts
	for _, workers := range []int{1, 2, 4} {
		m := bdd.NewWithConfig(p.Vars(), bdd.Config{Workers: workers})
		var f bdd.Ref
		err := m.Run(context.Background(), 200000, func() error {
			var err error
			f, err = gauntlet.Build(m, p)
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st := m.Stats()
		got := counts{live: m.NodeCount(), peak: st.PeakLive, gcs: st.GCs}
		t.Logf("workers=%d: %+v", workers, got)
		if workers == 1 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: %+v, want the Workers=1 %+v", workers, got, want)
		}
		c, err := count.Minterms(m, f, p.Vars())
		if err != nil || c.Int64() != 352 {
			t.Errorf("workers=%d: %v solutions (%v), want 352", workers, c, err)
		}
		m.Deref(f)
	}
}
