package bdd_test

import (
	"fmt"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

// The basic workflow: build functions, combine, count, release.
func Example() {
	m := bdd.New(3)
	x, y, z := m.IthVar(0), m.IthVar(1), m.IthVar(2)

	xy := m.And(x, y)
	f := m.Or(xy, z)
	m.Deref(xy)

	n, _ := count.Minterms(m, f, 3)
	fmt.Println("size:", m.DagSize(f))
	fmt.Println("minterms:", n)
	fmt.Println("f(1,1,0):", m.Eval(f, []bool{true, true, false}))
	m.Deref(f)
	// Output:
	// size: 4
	// minterms: 5
	// f(1,1,0): true
}

// Complementation is free: f and ¬f share the same nodes.
func ExampleRef_Complement() {
	m := bdd.New(2)
	f := m.And(m.IthVar(0), m.IthVar(1))
	g := f.Complement()
	fmt.Println("same node:", f.Regular() == g.Regular())
	nf, _ := count.Minterms(m, f, 2)
	ng, _ := count.Minterms(m, g, 2)
	fmt.Println("minterms f:", nf, "g:", ng)
	m.Deref(f)
	// Output:
	// same node: true
	// minterms f: 1 g: 3
}

// Restrict minimizes a function against a care set (Figure 1 of the DAC'98
// paper): where the care set is false the function is remapped to increase
// sharing.
func ExampleManager_Restrict() {
	m := bdd.New(3)
	x, y, z := m.IthVar(0), m.IthVar(1), m.IthVar(2)
	yz := m.And(y, z)
	f := m.ITE(x, yz, z) // x ? y·z : z
	r := m.Restrict(f, x)
	fmt.Println("|f| =", m.DagSize(f), "|f⇓x| =", m.DagSize(r))
	// On the care set x=1 they agree.
	both := m.Xnor(f, r)
	agree := m.Leq(x, both)
	fmt.Println("agree on care set:", agree)
	m.Deref(yz)
	m.Deref(f)
	m.Deref(r)
	m.Deref(both)
	// Output:
	// |f| = 4 |f⇓x| = 3
	// agree on care set: true
}

// Quantification and the relational product.
func ExampleManager_AndExists() {
	m := bdd.New(4)
	// R(x0,x1) = x0 XOR x1; F(x0) = x0. ∃x0. F·R = ¬x1... x1 must be the
	// complement of a satisfying x0=1, so the product is ¬x1? No: x0=1
	// and x0 XOR x1 forces x1=0, so the result is ¬x1.
	r := m.Xor(m.IthVar(0), m.IthVar(1))
	cube := m.CubeFromVars([]int{0})
	img := m.AndExists(m.IthVar(0), r, cube)
	fmt.Println("image is ¬x1:", img == m.IthVar(1).Complement())
	m.Deref(r)
	m.Deref(cube)
	m.Deref(img)
	// Output:
	// image is ¬x1: true
}
