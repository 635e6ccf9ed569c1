package approx_test

import (
	"fmt"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

// RemapUnderApprox extracts a dense subset: fewer nodes per minterm than
// the original, never adding minterms.
func ExampleRemapUnderApprox() {
	m := bdd.New(8)
	// A union of products with very different minterm mass.
	wide := m.And(m.IthVar(0), m.IthVar(1)) // 1/4 of the space
	var narrow bdd.Ref = m.Ref(bdd.One)     // a single minterm
	for i := 0; i < 8; i++ {
		lit := m.IthVar(i)
		if i%2 == 1 {
			lit = lit.Complement()
		}
		nn := m.And(narrow, lit)
		m.Deref(narrow)
		narrow = nn
	}
	f := m.Or(wide, narrow)

	g := approx.RemapUnderApprox(m, f, 0, 1.0)
	fmt.Println("contained:", m.Leq(g, f))
	fmt.Println("safe:", approx.Density(m, g) >= approx.Density(m, f))
	fmt.Println("smaller:", m.DagSize(g) <= m.DagSize(f))
	m.Deref(wide)
	m.Deref(narrow)
	m.Deref(f)
	m.Deref(g)
	// Output:
	// contained: true
	// safe: true
	// smaller: true
}

// Compound methods never lose to their simple counterparts.
func ExampleCompound1() {
	m := bdd.New(6)
	f := m.Xor(m.IthVar(0), m.IthVar(3))
	g := m.And(f, m.IthVar(5))
	rua := approx.RemapUnderApprox(m, g, 0, 1.0)
	c1 := approx.Compound1(m, g, 0, 1.0)
	nc1, _ := count.Minterms(m, c1, 6)
	nrua, _ := count.Minterms(m, rua, 6)
	fmt.Println("C1 nodes ≤ RUA nodes:", m.DagSize(c1) <= m.DagSize(rua))
	fmt.Println("C1 minterms ≥ RUA minterms:", nc1.Cmp(nrua) >= 0)
	m.Deref(f)
	m.Deref(g)
	m.Deref(rua)
	m.Deref(c1)
	// Output:
	// C1 nodes ≤ RUA nodes: true
	// C1 minterms ≥ RUA minterms: true
}
