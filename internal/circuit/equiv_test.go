package circuit

import "testing"

// shiftAddMultiplier builds an n-bit multiplier as unrolled shift-and-add
// — a structurally different implementation of the array multiplier.
func shiftAddMultiplier(n int) *Netlist {
	b := NewBuilder("mult_sa")
	a := b.InputBus("a", n)
	bb := b.InputBus("b", n)
	zero := b.Const(false)
	acc := make([]Sig, 2*n)
	for i := range acc {
		acc[i] = zero
	}
	for i := 0; i < n; i++ {
		// acc += (b_i ? a << i : 0)
		addend := make([]Sig, 2*n)
		for k := range addend {
			addend[k] = zero
		}
		for j := 0; j < n; j++ {
			addend[i+j] = b.And(a[j], bb[i])
		}
		acc, _ = b.Adder(acc, addend, zero)
	}
	b.OutputBus("p", acc)
	return b.MustBuild()
}

func arrayMultiplier(n int) *Netlist {
	b := NewBuilder("mult_arr")
	a := b.InputBus("a", n)
	bb := b.InputBus("b", n)
	b.OutputBus("p", b.Multiplier(a, bb))
	return b.MustBuild()
}

func TestEquivalentMultipliers(t *testing.T) {
	ok, mm, err := Equivalent(arrayMultiplier(6), shiftAddMultiplier(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("equivalent multipliers reported different: %v", mm)
	}
}

func TestEquivalenceCounterexample(t *testing.T) {
	// A buggy adder: carry chain uses OR instead of XOR on the last bit.
	good := NewBuilder("good")
	a := good.InputBus("a", 4)
	b := good.InputBus("b", 4)
	s, _ := good.Adder(a, b, good.Const(false))
	good.OutputBus("s", s)
	g := good.MustBuild()

	bad := NewBuilder("good") // same interface names
	a2 := bad.InputBus("a", 4)
	b2 := bad.InputBus("b", 4)
	s2, _ := bad.Adder(a2, b2, bad.Const(false))
	s2[3] = bad.Or(a2[3], b2[3]) // inject the bug
	bad.OutputBus("s", s2)
	bg := bad.MustBuild()

	ok, mm, err := Equivalent(g, bg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("buggy adder reported equivalent")
	}
	if mm == nil || mm.Output != "s3" {
		t.Fatalf("unexpected mismatch report: %v", mm)
	}
	// Replay the counterexample on both simulators: outputs must differ.
	simG, _ := NewSimulator(g)
	simB, _ := NewSimulator(bg)
	in := make([]bool, 8)
	for i := 0; i < 4; i++ {
		in[i] = mm.Inputs[g.NameOf(g.Inputs[i])]
		in[4+i] = mm.Inputs[g.NameOf(g.Inputs[4+i])]
	}
	og := simG.Step(in)
	ob := simB.Step(in)
	if og[3] == ob[3] {
		t.Fatal("counterexample does not distinguish the circuits")
	}
}

func TestEquivalentErrors(t *testing.T) {
	// Mismatched inputs.
	x := NewBuilder("x")
	x.Output("y", x.Not(x.Input("a")))
	nx := x.MustBuild()
	y := NewBuilder("x")
	y.Output("y", y.Not(y.Input("different")))
	ny := y.MustBuild()
	if _, _, err := Equivalent(nx, ny, nil); err == nil {
		t.Fatal("mismatched input sets not rejected")
	}
	// Latches rejected.
	z := NewBuilder("z")
	q := z.Latch("q", false)
	z.SetNext(q, q)
	z.Output("y", q)
	nz := z.MustBuild()
	if _, _, err := Equivalent(nz, nz, nil); err == nil {
		t.Fatal("sequential circuit not rejected")
	}
}
