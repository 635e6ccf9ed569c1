package circuit

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// buildCounter returns an en-gated k-bit counter with a terminal-count
// output.
func buildCounter(k int) *Netlist {
	b := NewBuilder("counter")
	en := b.Input("en")
	q := b.LatchBus("q", k, 0)
	inc, _ := b.Incrementer(q)
	next := b.MuxBus(en, inc, q)
	b.SetNextBus(q, next)
	tc := b.EqConst(q, uint64(1<<uint(k)-1))
	b.Output("tc", tc)
	return b.MustBuild()
}

func TestCounterSimulation(t *testing.T) {
	const k = 4
	nl := buildCounter(k)
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Count 2^k steps with enable high; tc must pulse at value 2^k-1.
	for step := 0; step < 1<<k; step++ {
		want := step == 1<<k-1
		out := sim.Step([]bool{true})
		if out[0] != want {
			t.Fatalf("step %d: tc = %v, want %v", step, out[0], want)
		}
	}
	// Back at zero.
	for _, bit := range sim.State() {
		if bit {
			t.Fatal("counter did not wrap to zero")
		}
	}
	// With enable low the state freezes.
	before := sim.State()
	sim.Step([]bool{false})
	after := sim.State()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("counter moved with enable low")
		}
	}
}

func TestCompileMatchesSimulator(t *testing.T) {
	nl := buildCounter(5)
	c, err := Compile(nl, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	sim, _ := NewSimulator(nl)
	rng := rand.New(rand.NewSource(42))
	state := make([]bool, len(nl.Latches))
	for iter := 0; iter < 200; iter++ {
		for i := range state {
			state[i] = rng.Intn(2) == 1
		}
		in := []bool{rng.Intn(2) == 1}
		sim.SetState(state)
		wantOut := sim.Step(in)
		wantNext := sim.State()
		gotOut := c.EvalOutputs(state, in)
		gotNext := c.EvalNext(state, in)
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("output %d mismatch", i)
			}
		}
		for i := range wantNext {
			if gotNext[i] != wantNext[i] {
				t.Fatalf("next-state %d mismatch", i)
			}
		}
	}
	if err := c.M.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestAdderMultiplier checks the arithmetic helpers against integers.
func TestAdderMultiplier(t *testing.T) {
	const n = 5
	b := NewBuilder("arith")
	a := b.InputBus("a", n)
	bb := b.InputBus("b", n)
	sum, cout := b.Adder(a, bb, b.Const(false))
	b.OutputBus("s", sum)
	b.Output("cout", cout)
	prod := b.Multiplier(a, bb)
	b.OutputBus("p", prod)
	diff, _ := b.Subtractor(a, bb)
	b.OutputBus("d", diff)
	lt := b.Less(a, bb)
	b.Output("lt", lt)
	nl := b.MustBuild()
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	toBits := func(x, w int) []bool {
		out := make([]bool, w)
		for i := range out {
			out[i] = x>>uint(i)&1 == 1
		}
		return out
	}
	fromBits := func(bits []bool) int {
		v := 0
		for i, b := range bits {
			if b {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	for x := 0; x < 1<<n; x += 3 {
		for y := 0; y < 1<<n; y += 5 {
			in := append(toBits(x, n), toBits(y, n)...)
			out := sim.Step(in)
			s := fromBits(out[:n])
			carry := out[n]
			p := fromBits(out[n+1 : n+1+2*n])
			d := fromBits(out[n+1+2*n : n+1+3*n])
			less := out[n+1+3*n]
			if got := s + boolToInt(carry)<<n; got != x+y {
				t.Fatalf("adder: %d+%d = %d", x, y, got)
			}
			if p != x*y {
				t.Fatalf("multiplier: %d*%d = %d", x, y, p)
			}
			if d != (x-y+1<<n)%(1<<n) {
				t.Fatalf("subtractor: %d-%d = %d", x, y, d)
			}
			if less != (x < y) {
				t.Fatalf("less: %d<%d = %v", x, y, less)
			}
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestMuxN(t *testing.T) {
	b := NewBuilder("muxn")
	sel := b.InputBus("s", 2)
	buses := make([][]Sig, 4)
	for i := range buses {
		buses[i] = b.ConstBus(uint64(i), 2)
	}
	out := b.MuxN(sel, buses)
	b.OutputBus("y", out)
	nl := b.MustBuild()
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		out := sim.Step([]bool{s&1 == 1, s&2 == 2})
		got := boolToInt(out[0]) | boolToInt(out[1])<<1
		if got != s {
			t.Fatalf("MuxN(%d) = %d", s, got)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
.model counter2
.inputs en
.latch q0 n0 0
.latch q1 n1 1
t0 = XOR(q0, en)
c0 = AND(q0, en)
t1 = XOR(q1, c0)
n0 = BUF(t0)
n1 = BUF(t1)
y = AND(q0, q1)
.outputs y
.end
`
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != "counter2" || len(nl.Latches) != 2 || len(nl.Inputs) != 1 {
		t.Fatalf("parsed structure wrong: %+v", nl)
	}
	if !nl.Latches[1].Init {
		t.Fatal("latch init lost")
	}
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	nl2, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	// Same behavior: simulate both for a few cycles.
	s1, _ := NewSimulator(nl)
	s2, _ := NewSimulator(nl2)
	for i := 0; i < 10; i++ {
		en := i%3 != 0
		o1 := s1.Step([]bool{en})
		o2 := s2.Step([]bool{en})
		if o1[0] != o2[0] {
			t.Fatalf("round-trip changed behavior at step %d", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"undefined fanin":  ".model m\na = AND(x, y)\n.end",
		"bad latch":        ".model m\n.latch q 0\n.end",
		"unknown op":       ".model m\n.inputs a\nb = FROB(a)\n.end",
		"missing next":     ".model m\n.latch q nx 0\n.end",
		"undefined output": ".model m\n.inputs a\n.outputs zz\n.end",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestParseReportsReadError: a read error that cuts a gate line short is
// the error Parse returns, not the fragment's parse error.
func TestParseReportsReadError(t *testing.T) {
	cut := errors.New("body cut short")
	src := io.MultiReader(strings.NewReader(".model m\n.inputs a b\ng = AND(a"), iotest.ErrReader(cut))
	if _, err := Parse(src); !errors.Is(err, cut) {
		t.Fatalf("Parse error = %v, want the read error", err)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	b := NewBuilder("cyc")
	a := b.Input("a")
	// Manually wire a cycle: g1 = AND(a, g2), g2 = BUF(g1).
	g1 := b.add(Node{Op: OpAnd, Name: "g1", In: []Sig{a, 0}})
	g2 := b.add(Node{Op: OpBuf, Name: "g2", In: []Sig{g1}})
	b.nl.Nodes[g1].In[1] = g2
	b.Output("y", g2)
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
}

func TestCompileOutputsOverInputsOnly(t *testing.T) {
	// Pure combinational circuit: no latches, outputs over input vars.
	b := NewBuilder("comb")
	a := b.InputBus("a", 3)
	x := b.Xor(a[0], a[1], a[2])
	b.Output("par", x)
	nl := b.MustBuild()
	c, err := Compile(nl, CompileOptions{SkipNextVars: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if c.M.NumVars() != 3 {
		t.Fatalf("expected 3 vars, got %d", c.M.NumVars())
	}
	for x := 0; x < 8; x++ {
		state := []bool{}
		in := []bool{x&1 == 1, x&2 == 2, x&4 == 4}
		got := c.EvalOutputs(state, in)[0]
		want := (x&1 ^ x>>1&1 ^ x>>2&1) == 1
		if got != want {
			t.Fatalf("parity(%d) = %v", x, got)
		}
	}
}
