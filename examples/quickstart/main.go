// Quickstart: build BDDs, combine them with boolean operations, count
// minterms, pick satisfying assignments, and export Graphviz — the core
// vocabulary of the library.
package main

import (
	"fmt"
	"os"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/count"
)

func main() {
	// A manager with four variables x0..x3.
	m := bdd.New(4)
	x0, x1, x2, x3 := m.IthVar(0), m.IthVar(1), m.IthVar(2), m.IthVar(3)

	// f = (x0 AND x1) OR (x2 XOR x3). Operations return references the
	// caller owns; release them with Deref when done.
	and := m.And(x0, x1)
	xor := m.Xor(x2, x3)
	f := m.Or(and, xor)
	m.Deref(and)
	m.Deref(xor)

	fmt.Printf("|f|      = %d nodes\n", m.DagSize(f))
	nf, _ := count.Minterms(m, f, 4) // exact, as a big.Int
	fmt.Printf("||f||    = %v of %d minterms\n", nf, 1<<4)
	fmt.Printf("density  = %.3f\n", approx.Density(m, f))
	fmt.Printf("support  = %v\n", m.SupportVars(f))

	// Evaluate under an assignment.
	fmt.Printf("f(1,1,0,0) = %v\n", m.Eval(f, []bool{true, true, false, false}))

	// One satisfying cube and full enumeration.
	cube := m.PickOneCube(f)
	fmt.Printf("a satisfying cube: %v (0=neg, 1=pos, 2=don't care)\n", cube)
	n := 0
	m.ForEachCube(f, func([]int8) bool { n++; return true })
	fmt.Printf("f has %d cubes (paths to One)\n", n)

	// Quantification: ∃x3. f and the relational product.
	ex := m.Exists(f, []int{3})
	nex, _ := count.Minterms(m, ex, 4)
	fmt.Printf("|∃x3.f| = %d nodes, ||∃x3.f|| = %v minterms\n", m.DagSize(ex), nex)
	m.Deref(ex)

	// Generalized cofactor: restrict f to the care set x0.
	r := m.Restrict(f, x0)
	fmt.Printf("|f⇓x0|  = %d nodes (f remapped against care set x0)\n", m.DagSize(r))
	m.Deref(r)

	// Graphviz export (Figure 1 style: solid=then, dashed=else,
	// dotted=complemented else).
	if err := m.DumpDot(os.Stdout, []string{"f"}, []bdd.Ref{f}); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	m.Deref(f)
}
