package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text netlist format, a BLIF-flavored line format small enough to write by
// hand:
//
//	.model counter2
//	.inputs en
//	.latch q0 n0 0
//	.latch q1 n1 0
//	t0 = XOR(q0, en)
//	c0 = AND(q0, en)
//	t1 = XOR(q1, c0)
//	n0 = BUF(t0)
//	n1 = BUF(t1)
//	y  = AND(q0, q1)
//	.outputs y
//	.end
//
// A `.latch Q NEXT INIT` line declares a state bit whose next value is the
// signal named NEXT (which may be defined later in the file). Gate lines
// are `name = OP(a, b, ...)`; CONST0/CONST1 take no arguments.

// Parse reads a netlist in the text format.
func Parse(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	b := NewBuilder("")
	type pendingLatch struct {
		q    Sig
		next string
	}
	var pend []pendingLatch
	type pendingOut struct{ name string }
	var outs []pendingOut
	lineNo := 0
	ended := false
	// A read error cuts the last line short: report it, not the parse
	// error of the fragment.
	fail := func(err error) (*Netlist, error) {
		if rerr := sc.Err(); rerr != nil {
			return nil, rerr
		}
		return nil, err
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ended {
			return fail(fmt.Errorf("line %d: content after .end", lineNo))
		}
		switch {
		case strings.HasPrefix(line, ".model"):
			b.nl.Name = strings.TrimSpace(strings.TrimPrefix(line, ".model"))
		case strings.HasPrefix(line, ".inputs"):
			for _, name := range strings.Fields(line)[1:] {
				// The builder panics on duplicate names (a programming
				// error for generated models); file input is untrusted
				// and must get an error instead.
				if _, dup := b.nl.byName[name]; dup {
					return fail(fmt.Errorf("line %d: duplicate signal %q", lineNo, name))
				}
				b.Input(name)
			}
		case strings.HasPrefix(line, ".latch"):
			f := strings.Fields(line)
			if len(f) != 4 {
				return fail(fmt.Errorf("line %d: .latch needs Q NEXT INIT", lineNo))
			}
			init := false
			switch f[3] {
			case "0":
			case "1":
				init = true
			default:
				return fail(fmt.Errorf("line %d: bad latch init %q", lineNo, f[3]))
			}
			if _, dup := b.nl.byName[f[1]]; dup {
				return fail(fmt.Errorf("line %d: duplicate signal %q", lineNo, f[1]))
			}
			q := b.Latch(f[1], init)
			pend = append(pend, pendingLatch{q: q, next: f[2]})
		case strings.HasPrefix(line, ".outputs"):
			for _, name := range strings.Fields(line)[1:] {
				outs = append(outs, pendingOut{name})
			}
		case line == ".end":
			ended = true
		case strings.Contains(line, "="):
			if err := parseGate(b, line, lineNo); err != nil {
				return fail(err)
			}
		default:
			return fail(fmt.Errorf("line %d: cannot parse %q", lineNo, line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, p := range pend {
		s, ok := b.nl.byName[p.next]
		if !ok {
			return nil, fmt.Errorf("latch next-state signal %q undefined", p.next)
		}
		b.SetNext(p.q, s)
	}
	for _, o := range outs {
		s, ok := b.nl.byName[o.name]
		if !ok {
			return nil, fmt.Errorf("output signal %q undefined", o.name)
		}
		b.Output(o.name, s)
	}
	return b.Build()
}

func parseGate(b *Builder, line string, lineNo int) error {
	eq := strings.Index(line, "=")
	name := strings.TrimSpace(line[:eq])
	if name != "" {
		if _, dup := b.nl.byName[name]; dup {
			return fmt.Errorf("line %d: duplicate signal %q", lineNo, name)
		}
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.Index(rhs, "(")
	var opName string
	var args []string
	if open < 0 {
		opName = rhs // e.g. CONST0
	} else {
		opName = strings.TrimSpace(rhs[:open])
		close := strings.LastIndex(rhs, ")")
		if close < open {
			return fmt.Errorf("line %d: unbalanced parentheses", lineNo)
		}
		inner := strings.TrimSpace(rhs[open+1 : close])
		if inner != "" {
			for _, a := range strings.Split(inner, ",") {
				args = append(args, strings.TrimSpace(a))
			}
		}
	}
	op, ok := opByName[strings.ToUpper(opName)]
	if !ok {
		return fmt.Errorf("line %d: unknown op %q", lineNo, opName)
	}
	in := make([]Sig, len(args))
	for i, a := range args {
		s, ok := b.nl.byName[a]
		if !ok {
			return fmt.Errorf("line %d: undefined signal %q", lineNo, a)
		}
		in[i] = s
	}
	switch op {
	case OpInput, OpLatch:
		return fmt.Errorf("line %d: %v cannot appear as a gate", lineNo, op)
	}
	b.add(Node{Op: op, Name: name, In: in})
	return nil
}

// Write emits the netlist in the text format; Parse(Write(nl)) round-trips
// modulo anonymous-signal naming. Declared output names that alias an
// internally named signal (a Builder's OutputBus does this) are preserved
// by emitting a BUF gate under the alias, since the text format's
// .outputs line can only reference signal names.
func Write(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nl.Name)
	if len(nl.Inputs) > 0 {
		fmt.Fprint(bw, ".inputs")
		for _, s := range nl.Inputs {
			fmt.Fprintf(bw, " %s", nl.NameOf(s))
		}
		fmt.Fprintln(bw)
	}
	for _, l := range nl.Latches {
		init := 0
		if l.Init {
			init = 1
		}
		fmt.Fprintf(bw, ".latch %s %s %d\n", nl.NameOf(l.Q), nl.NameOf(l.Next), init)
	}
	// Emit gates in topological order so the file reads top-down.
	order, err := nl.TopoOrder()
	if err != nil {
		return err
	}
	for _, s := range order {
		nd := &nl.Nodes[s]
		switch nd.Op {
		case OpInput, OpLatch:
			continue
		case OpConst0, OpConst1:
			fmt.Fprintf(bw, "%s = %v\n", nl.NameOf(s), nd.Op)
		default:
			names := make([]string, len(nd.In))
			for i, in := range nd.In {
				names[i] = nl.NameOf(in)
			}
			fmt.Fprintf(bw, "%s = %v(%s)\n", nl.NameOf(s), nd.Op, strings.Join(names, ", "))
		}
	}
	if len(nl.Outputs) > 0 {
		outNames := make([]string, len(nl.Outputs))
		for i, s := range nl.Outputs {
			name := nl.NameOf(s)
			if i < len(nl.OutName) && nl.OutName[i] != "" && nl.OutName[i] != name {
				if _, taken := nl.byName[nl.OutName[i]]; !taken {
					fmt.Fprintf(bw, "%s = BUF(%s)\n", nl.OutName[i], name)
					name = nl.OutName[i]
				}
			}
			outNames[i] = name
		}
		fmt.Fprint(bw, ".outputs")
		for _, name := range outNames {
			fmt.Fprintf(bw, " %s", name)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}
