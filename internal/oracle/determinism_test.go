package oracle

import (
	"testing"

	"bddkit/internal/bdd"
)

// TestRebuildDeterminism: a manager whose small arena, and the computed
// table sized from it, force collections, growth and evictions must
// compute the same functions as a default manager across the expression
// corpus, and rebuilding a function on it must return the identical Ref
// (canonicity does not depend on the manager's memory history).
func TestRebuildDeterminism(t *testing.T) {
	const vars = 12
	const exprs = 40
	m1 := bdd.New(vars)
	m4 := bdd.NewWithConfig(vars, bdd.Config{InitialNodes: 64})
	chk := NewChecker(11)

	gen := NewGen(17, vars)
	for i := 0; i < exprs; i++ {
		e := gen.Expr(6)
		f1 := e.Build(m1)
		f4 := e.Build(m4)
		if err := chk.EqualAcross(m1, f1, m4, f4); err != nil {
			t.Fatalf("expr %d: default and small manager disagree: %v", i, err)
		}
		again := e.Build(m4)
		if again != f4 {
			t.Fatalf("expr %d: rebuilding on the small manager gave ref %v, first build %v", i, again, f4)
		}
		m4.Deref(again)
		m1.Deref(f1)
		m4.Deref(f4)
	}
	if err := m4.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}
