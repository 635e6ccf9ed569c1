package oracle

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
)

// Native Go fuzz targets for the untrusted-input surfaces of the stack.
// Seed corpora live under testdata/fuzz/<Target>/ (including the
// malformed-header Load inputs that used to drive unbounded allocation);
// `make fuzz-smoke` runs each target briefly on every check.

// FuzzLoad feeds arbitrary bytes to the BDD deserializer. Whatever the
// input, Load must either fail cleanly or produce a manager that passes
// DebugCheck, never grows past the documented caps, and round-trips the
// loaded forest canonically.
func FuzzLoad(f *testing.F) {
	// A well-formed forest as a coverage seed.
	{
		m := bdd.New(4)
		a := m.And(m.IthVar(0), m.IthVar(1))
		x := m.Xor(a, m.IthVar(3))
		var buf bytes.Buffer
		if err := m.Save(&buf, []string{"a", "x"}, []bdd.Ref{a, x}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("bddkit-bdd v1\nvars 2000000000\nnodes 1\n"))
	f.Add([]byte("bddkit-bdd v1\nvars 2\nnodes 2000000000\n1 0 +0 -0\n"))
	f.Add([]byte("bddkit-bdd v1\nvars 2\nnodes -1\nroots 0\n"))
	f.Add([]byte("bddkit-bdd v1\nvars 2\nnodes 1\n1 1 +0 -0\nroots 1\nf +1\n"))
	// Byte-budget seed: a shape-valid stream padded far past what its
	// declared header justifies must fail with the typed size error.
	f.Add([]byte("bddkit-bdd v1\nvars 2\nnodes 0\n" + strings.Repeat("# pad\n", 900) + "roots 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := bdd.New(2)
		roots, err := m.Load(bytes.NewReader(data))
		if m.NumVars() > bdd.MaxLoadVars {
			t.Fatalf("Load grew the manager to %d variables, cap is %d", m.NumVars(), bdd.MaxLoadVars)
		}
		if err == nil {
			// A successfully loaded forest must re-serialize and reload
			// onto bit-identical references (canonicity).
			names := make([]string, 0, len(roots))
			for name := range roots {
				names = append(names, name)
			}
			sort.Strings(names)
			rs := make([]bdd.Ref, len(names))
			for i, name := range names {
				rs[i] = roots[name]
			}
			var buf bytes.Buffer
			if err := m.Save(&buf, names, rs); err == nil {
				again, err := m.Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("reload of saved forest failed: %v", err)
				}
				for i, name := range names {
					if again[name] != rs[i] {
						t.Fatalf("root %q not canonical across save/load", name)
					}
				}
				for _, r := range again {
					m.Deref(r)
				}
			}
			for _, r := range roots {
				m.Deref(r)
			}
		}
		if err := m.DebugCheck(); err != nil {
			t.Fatalf("manager corrupt after Load: %v", err)
		}
	})
}

// FuzzNetlistParse feeds arbitrary bytes to the netlist parser. Accepted
// netlists must validate, simulate, and survive a Write/Parse round trip
// with their structure intact; rejected ones must fail with an error, not
// a panic.
func FuzzNetlistParse(f *testing.F) {
	f.Add([]byte(`.model counter2
.inputs en
.latch q0 n0 0
t0 = XOR(q0, en)
n0 = BUF(t0)
y = AND(q0, en)
.outputs y
.end
`))
	f.Add([]byte(".inputs a a\n"))
	f.Add([]byte(".latch q q 0\nq = AND(a, b)\n"))
	f.Add([]byte("x = CONST1\ny = NOT(x)\n.outputs y\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		nl, err := circuit.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("Parse accepted a netlist that fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := circuit.Write(&buf, nl); err != nil {
			t.Fatalf("Write failed on parsed netlist: %v", err)
		}
		nl2, err := circuit.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written netlist failed: %v\n%s", err, buf.String())
		}
		if nl2.NumGates() != nl.NumGates() ||
			len(nl2.Inputs) != len(nl.Inputs) ||
			len(nl2.Latches) != len(nl.Latches) ||
			len(nl2.Outputs) != len(nl.Outputs) {
			t.Fatalf("structure lost in Write/Parse round trip")
		}
	})
}

// FuzzITESequence interprets the input bytes as an operation program over
// a small manager, shadowing every step with truth-table semantics —
// a byte-driven variant of the stress driver, letting the fuzzer search
// for operation interleavings (including GC and reordering) that break
// canonicity or diverge from brute force.
func FuzzITESequence(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})
	f.Add([]byte{0x07, 0x07, 0x07, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add(bytes.Repeat([]byte{0x13, 0x37}, 64))

	f.Fuzz(func(t *testing.T, data []byte) { iteSequenceBody(t, data) })
}

// iteSequenceBody is the FuzzITESequence harness, split out so ordinary
// tests can drive it with chosen inputs.
func iteSequenceBody(t testing.TB, data []byte) {
	if len(data) > 512 {
		data = data[:512]
	}
	const nv = 6
	// A tiny pinned computed table keeps each exec fast: DebugCheck
	// scans the whole cache, and at the default 2^18 entries that scan
	// would dominate the harness and starve the fuzzer of throughput.
	m := bdd.NewWithConfig(nv, bdd.Config{CacheBits: 8, CacheMaxBits: 8})
	m.EnableAutoReorder(64)
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = i
	}
	pool := make([]poolEntry, 0, 16)
	for v := 0; v < nv; v++ {
		tab := NewTable(vars)
		for i := 0; i < tab.Len(); i++ {
			tab.Set(i, i>>uint(v)&1 == 1)
		}
		pool = append(pool, poolEntry{ref: m.Ref(m.IthVar(v)), table: tab})
	}
	verify := func(r bdd.Ref, want Table) {
		a := make([]bool, nv)
		for i := 0; i < want.Len(); i++ {
			for j := 0; j < nv; j++ {
				a[j] = i>>uint(j)&1 == 1
			}
			if Eval(m, r, a) != want.Get(i) {
				t.Fatalf("operation diverges from shadow semantics at %s", formatAssignment(a, vars))
			}
		}
	}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	for pos < len(data) {
		op := next()
		var (
			r        bdd.Ref
			want     Table
			produced bool
		)
		switch op % 8 {
		case 0:
			x, y, z := pool[next()%len(pool)], pool[next()%len(pool)], pool[next()%len(pool)]
			r = m.ITE(x.ref, y.ref, z.ref)
			want = x.table.Ite(y.table, z.table)
			produced = true
		case 1:
			x, y := pool[next()%len(pool)], pool[next()%len(pool)]
			r = m.And(x.ref, y.ref)
			want = x.table.And(y.table)
			produced = true
		case 2:
			x, y := pool[next()%len(pool)], pool[next()%len(pool)]
			r = m.Xor(x.ref, y.ref)
			want = x.table.Xor(y.table)
			produced = true
		case 3:
			x := pool[next()%len(pool)]
			r = m.Ref(x.ref.Complement())
			want = x.table.Not()
			produced = true
		case 4:
			x := pool[next()%len(pool)]
			v := next() % nv
			if op>>3&1 == 0 {
				r = m.Exists(x.ref, []int{v})
				want = x.table.Quant(v, false)
			} else {
				r = m.ForAll(x.ref, []int{v})
				want = x.table.Quant(v, true)
			}
			produced = true
		case 5:
			x, y := pool[next()%len(pool)], pool[next()%len(pool)]
			v := next() % nv
			r = m.Compose(x.ref, v, y.ref)
			want = x.table.Compose(v, y.table)
			produced = true
		case 6:
			m.GarbageCollect()
		default:
			m.Reorder(bdd.ReorderSift, bdd.SiftConfig{})
		}
		if produced {
			verify(r, want)
			if len(pool) < cap(pool) {
				pool = append(pool, poolEntry{ref: r, table: want})
			} else {
				slot := &pool[next()%len(pool)]
				m.Deref(slot.ref)
				slot.ref, slot.table = r, want
			}
		}
		if pos&7 == 0 {
			if err := m.DebugCheck(); err != nil {
				t.Fatalf("DebugCheck after byte %d: %v", pos, err)
			}
		}
	}
	for i := range pool {
		m.Deref(pool[i].ref)
	}
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != nv {
		t.Fatalf("%d nodes stay referenced after release, want %d", got, nv)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("%v", err)
	}
}
