// Approximation: run the paper's four underapproximation algorithms (HB,
// SP, UA, RUA) and the compound methods on a hard function — the middle
// output bit of an 8x8 array multiplier — and compare sizes, minterm
// retention, and density, the way Table 2 of the paper does.
package main

import (
	"fmt"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/count"
	"bddkit/internal/model"
)

func main() {
	// Compile an 8x8 multiplier and take a middle product bit: the
	// classic large-BDD function.
	nl := model.MultiplierNetlist(8)
	c, err := circuit.Compile(nl, circuit.CompileOptions{SkipNextVars: true})
	if err != nil {
		panic(err)
	}
	defer c.Release()
	m := c.M
	f := c.Outputs[8] // product bit 8

	n := m.NumVars()
	show := func(name string, g bdd.Ref) {
		minterms, _ := count.Minterms(m, g, n)
		fmt.Printf("%-14s |g| = %-6d ||g|| = %-12v δ = %-10.4f g⇒f: %v\n",
			name, m.DagSize(g), minterms, approx.Density(m, g), m.Leq(g, f))
	}
	show("F (original)", f)

	// RUA with threshold 0 and quality 1: the paper's safe setting.
	rua := approx.RemapUnderApprox(m, f, 0, 1.0)
	show("RUA", rua)

	// HB and SP get RUA's size as threshold (the Table 2 protocol).
	th := m.DagSize(rua)
	hb := approx.HeavyBranch(m, f, th)
	show("HB", hb)
	sp := approx.ShortPaths(m, f, th)
	show("SP", sp)

	ua := approx.UnderApprox(m, f, 0, 0.5)
	show("UA", ua)

	// Compound methods: C1 = µ(RUA(f), f), C2 = µ(RUA(SP(f)), f).
	c1 := approx.Compound1(m, f, 0, 1.0)
	show("C1 = µ∘RUA", c1)
	c2 := approx.Compound2(m, f, th, 1.0)
	show("C2 = µ∘RUA∘SP", c2)

	// Overapproximation is the free dual.
	over := approx.RemapOverApprox(m, f, 0, 1.0)
	fmt.Printf("%-14s |g| = %-6d f⇒g: %v\n", "RUA-over", m.DagSize(over), m.Leq(f, over))

	for _, g := range []bdd.Ref{rua, hb, sp, ua, c1, c2, over} {
		m.Deref(g)
	}
}
