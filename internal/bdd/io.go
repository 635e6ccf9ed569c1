package bdd

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Serialization: a line-oriented text format for persisting BDD forests.
// Nodes are written children-first with local identifiers, so loading is a
// single bottom-up pass; complement arcs are preserved as signed ids. The
// format is order-independent: loading rebuilds canonical nodes under the
// destination manager's current variable order.
//
//	bddkit-bdd v1
//	vars 12
//	nodes 3
//	1 4 +0 -0        # node 1: var 4, hi = One, lo = Zero
//	2 2 +1 -1
//	3 0 +2 -0
//	roots 1
//	f +3
//
// References are +id (regular) or -id (complemented); id 0 is the constant
// One, so -0 is written for Zero and parsed specially.

const ioMagic = "bddkit-bdd v1"

// Load treats its input as untrusted: header counts are validated against
// these caps before any allocation or variable growth, so a malformed
// "vars 2000000000" line is an error, not an OOM. The caps are far above
// anything this package can process in practice, yet small enough that a
// hostile header cannot commit unbounded memory.
const (
	// MaxLoadVars bounds the "vars N" header (and therefore how many
	// variables Load may add to the destination manager).
	MaxLoadVars = 1 << 20
	// MaxLoadNodes bounds the "nodes N" header.
	MaxLoadNodes = 1 << 26
	// maxLoadPrealloc bounds how much of the node index is allocated up
	// front on the strength of the header alone; beyond it the index
	// grows only as node lines actually arrive.
	maxLoadPrealloc = 1 << 16
	// maxLoadRoots bounds the "roots N" header.
	maxLoadRoots = 1 << 20

	// loadHeaderAllowance is the byte budget before the nodes header has
	// declared a size: magic, vars/nodes headers, and a little slack for
	// blank lines and comments.
	loadHeaderAllowance = 4096
	// maxNodeLineBytes is the per-declared-node byte allowance. A node line
	// is four small integers ("67108863 1048575 +67108862 -67108861" ≈ 35
	// bytes); 128 leaves room for formatting slack without letting a
	// hostile stream pad megabytes between nodes.
	maxNodeLineBytes = 128
	// maxRootLineBytes is the per-declared-root byte allowance; root names
	// are caller-chosen, so the line budget is generous.
	maxRootLineBytes = 4096
)

// LoadSizeError reports an input stream that exceeded the byte budget
// derived from its own declared header: either the header preamble was
// padded past loadHeaderAllowance, or the body overran the per-node /
// per-root allowances. A server restoring an untrusted tenant snapshot
// matches it with errors.As to distinguish hostile padding from ordinary
// parse failures.
type LoadSizeError struct {
	Read  int64 // bytes consumed when the budget tripped
	Limit int64 // budget the declared header had earned
}

func (e *LoadSizeError) Error() string {
	return fmt.Sprintf("bdd: Load: input exceeds byte budget (%d read, %d allowed by declared header)", e.Read, e.Limit)
}

// Save writes the forest rooted at the named functions.
func (m *Manager) Save(w io.Writer, names []string, roots []Ref) error {
	if len(names) != len(roots) {
		return fmt.Errorf("bdd: Save: %d names for %d roots", len(names), len(roots))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, ioMagic)
	fmt.Fprintf(bw, "vars %d\n", m.NumVars())

	// Assign local ids in children-first order. The walk uses an explicit
	// worklist rather than recursion: a chain-shaped BDD (a cube over a
	// million variables) is as deep as it is large, and must not exhaust
	// the goroutine stack.
	local := map[uint32]int{One.ID(): 0}
	var order []Ref // regular refs, children first
	var stack []Ref // regular refs pending a post-order visit
	visit := func(r Ref) {
		stack = append(stack, r.Regular())
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if _, ok := local[top.ID()]; ok {
				stack = stack[:len(stack)-1]
				continue
			}
			hi, lo := m.StructHi(top), m.StructLo(top)
			_, hiDone := local[hi.ID()]
			_, loDone := local[lo.ID()]
			if hiDone && loDone {
				stack = stack[:len(stack)-1]
				local[top.ID()] = len(order) + 1
				order = append(order, top)
				continue
			}
			if !hiDone {
				stack = append(stack, hi.Regular())
			}
			if !loDone {
				stack = append(stack, lo.Regular())
			}
		}
	}
	for _, r := range roots {
		if !r.IsConstant() {
			visit(r)
		}
	}
	enc := func(r Ref) string {
		sign := "+"
		if r.IsComplement() {
			sign = "-"
		}
		return fmt.Sprintf("%s%d", sign, local[r.ID()])
	}
	fmt.Fprintf(bw, "nodes %d\n", len(order))
	for _, r := range order {
		fmt.Fprintf(bw, "%d %d %s %s\n", local[r.ID()], m.Var(r), enc(m.StructHi(r)), enc(m.StructLo(r)))
	}
	fmt.Fprintf(bw, "roots %d\n", len(roots))
	for i, r := range roots {
		if strings.ContainsAny(names[i], " \t\n") {
			return fmt.Errorf("bdd: Save: root name %q contains whitespace", names[i])
		}
		fmt.Fprintf(bw, "%s %s\n", names[i], enc(r))
	}
	return bw.Flush()
}

// Load reads a forest saved by Save into this manager, growing the variable
// set if the file needs more variables. It returns the roots by name, each
// carrying one reference owned by the caller.
func (m *Manager) Load(r io.Reader) (map[string]Ref, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	// The stream earns its byte budget from its own header: a small
	// allowance up front, then nnodes/nroots line allowances once those
	// headers are parsed. Every scanned byte — including comments and
	// blank lines — is charged, so a payload cannot pad itself past what
	// its declared shape justifies.
	var read int64
	budget := int64(loadHeaderAllowance)
	line := func() (string, error) {
		for sc.Scan() {
			read += int64(len(sc.Bytes())) + 1
			if read > budget {
				return "", &LoadSizeError{Read: read, Limit: budget}
			}
			s := strings.TrimSpace(sc.Text())
			if s != "" && !strings.HasPrefix(s, "#") {
				return s, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	hdr, err := line()
	if err != nil {
		return nil, err
	}
	if hdr != ioMagic {
		return nil, fmt.Errorf("bdd: Load: bad magic %q", hdr)
	}
	var nvars int
	if s, err := line(); err != nil {
		return nil, err
	} else if !scan1(s, "vars %d", &nvars) {
		return nil, fmt.Errorf("bdd: Load: missing vars header")
	}
	if nvars < 0 || nvars > MaxLoadVars {
		return nil, fmt.Errorf("bdd: Load: vars %d outside [0,%d]", nvars, MaxLoadVars)
	}
	for m.NumVars() < nvars {
		m.AddVar()
	}
	var nnodes int
	if s, err := line(); err != nil {
		return nil, err
	} else if !scan1(s, "nodes %d", &nnodes) {
		return nil, fmt.Errorf("bdd: Load: missing nodes header")
	}
	if nnodes < 0 || nnodes > MaxLoadNodes {
		return nil, fmt.Errorf("bdd: Load: nodes %d outside [0,%d]", nnodes, MaxLoadNodes)
	}
	budget += int64(nnodes) * maxNodeLineBytes
	// byID[i] holds the regular function for local id i; all are owned
	// here and released on return. The header alone commits only a small
	// allocation — the index grows with the node lines actually read, so
	// an inflated count costs nothing.
	prealloc := nnodes + 1
	if prealloc > maxLoadPrealloc {
		prealloc = maxLoadPrealloc
	}
	byID := make([]Ref, 1, prealloc)
	byID[0] = One
	// release drops the construction references (only filled slots exist).
	release := func() {
		for _, f := range byID[1:] {
			m.Deref(f)
		}
	}
	filled := 0
	dec := func(tok string) (Ref, error) {
		if len(tok) < 2 || (tok[0] != '+' && tok[0] != '-') {
			return 0, fmt.Errorf("bdd: Load: bad ref %q", tok)
		}
		id, err := strconv.Atoi(tok[1:])
		if err != nil || id < 0 || id > filled {
			return 0, fmt.Errorf("bdd: Load: forward or invalid ref %q", tok)
		}
		f := byID[id]
		if tok[0] == '-' {
			f = f.Complement()
		}
		return f, nil
	}
	for i := 1; i <= nnodes; i++ {
		s, err := line()
		if err != nil {
			release()
			return nil, err
		}
		fields := strings.Fields(s)
		if len(fields) != 4 {
			release()
			return nil, fmt.Errorf("bdd: Load: bad node line %q", s)
		}
		id, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || id != i || v < 0 || v >= m.NumVars() {
			release()
			return nil, fmt.Errorf("bdd: Load: bad node header in %q", s)
		}
		hi, err := dec(fields[2])
		if err != nil {
			release()
			return nil, err
		}
		lo, err := dec(fields[3])
		if err != nil {
			release()
			return nil, err
		}
		byID = append(byID, m.iteRec(m.IthVar(v), hi, lo, 1))
		filled = i
	}
	var nroots int
	if s, err := line(); err != nil {
		release()
		return nil, err
	} else if !scan1(s, "roots %d", &nroots) {
		release()
		return nil, fmt.Errorf("bdd: Load: missing roots header")
	}
	if nroots < 0 || nroots > maxLoadRoots {
		release()
		return nil, fmt.Errorf("bdd: Load: roots %d outside [0,%d]", nroots, maxLoadRoots)
	}
	budget += int64(nroots) * maxRootLineBytes
	out := make(map[string]Ref, min(nroots, maxLoadPrealloc))
	for i := 0; i < nroots; i++ {
		s, err := line()
		if err != nil {
			for _, f := range out {
				m.Deref(f)
			}
			release()
			return nil, err
		}
		fields := strings.Fields(s)
		if len(fields) != 2 {
			for _, f := range out {
				m.Deref(f)
			}
			release()
			return nil, fmt.Errorf("bdd: Load: bad root line %q", s)
		}
		f, err := dec(fields[1])
		if err != nil {
			for _, fr := range out {
				m.Deref(fr)
			}
			release()
			return nil, err
		}
		out[fields[0]] = m.Ref(f)
	}
	release()
	return out, nil
}

// scan1 parses one integer with the given format.
func scan1(s, format string, v *int) bool {
	n, err := fmt.Sscanf(s, format, v)
	return err == nil && n == 1
}
