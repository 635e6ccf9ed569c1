package bdd_test

import (
	"math"
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

func TestDensityOfCube(t *testing.T) {
	m := bdd.New(8)
	// x0·x1·…·x7 has exactly one satisfying assignment and 9 nodes (8
	// internal + 1 constant) under DagSize.
	cube := m.CubeFromVars([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if got, err := count.Minterms(m, cube, 8); err != nil || got.Int64() != 1 {
		t.Fatalf("cube minterms = %v (err %v)", got, err)
	}
	if got := m.DagSize(cube); got != 9 {
		t.Fatalf("cube size = %d", got)
	}
	if d := approx.Density(m, cube); math.Abs(d-1.0/9) > 1e-12 {
		t.Fatalf("cube density = %v", d)
	}
	m.Deref(cube)
}
