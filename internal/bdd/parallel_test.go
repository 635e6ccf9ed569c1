package bdd

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// newPar returns a manager with the work-stealing engine armed, regardless
// of GOMAXPROCS, so the parallel code paths run even under -cpu 1.
func newPar(t *testing.T, vars, workers int) *Manager {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	m := NewWithConfig(vars, cfg)
	if m.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", m.Workers(), workers)
	}
	return m
}

// buildAdder builds the carry chain of an n-bit adder: a function family
// with heavy sharing and enough depth to trigger forking.
func buildAdder(m *Manager, n int) Ref {
	carry := Zero
	for i := 0; i < n; i++ {
		a := m.IthVar(2 * i)
		b := m.IthVar(2*i + 1)
		ab := m.And(a, b)
		axb := m.Xor(a, b)
		ac := m.And(axb, carry)
		nc := m.Or(ab, ac)
		m.Deref(ab)
		m.Deref(axb)
		m.Deref(ac)
		if carry != Zero {
			m.Deref(carry)
		}
		carry = nc
	}
	return carry
}

func TestParallelMatchesSerialAdder(t *testing.T) {
	const bits = 8
	ms := New(2 * bits)
	mp := newPar(t, 2*bits, 4)

	fs := buildAdder(ms, bits)
	fp := buildAdder(mp, bits)

	a := make([]bool, 2*bits)
	for i := 0; i < 1<<12; i++ {
		for j := range a {
			a[j] = i>>uint(j)&1 == 1
		}
		if ms.Eval(fs, a) != mp.Eval(fp, a) {
			t.Fatalf("parallel adder diverges from serial at assignment %d", i)
		}
	}
	if got, want := mp.DagSize(fp), ms.DagSize(fs); got != want {
		t.Fatalf("parallel DagSize %d, serial %d", got, want)
	}
	if err := mp.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck: %v", err)
	}
}

func TestParallelCanonicity(t *testing.T) {
	m := newPar(t, 16, 4)

	f1 := buildAdder(m, 8)
	f2 := buildAdder(m, 8)
	if f1 != f2 {
		t.Fatalf("same function built twice got different refs %v and %v", f1, f2)
	}
	m.Deref(f1)
	m.Deref(f2)
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != 16 {
		t.Fatalf("after release %d nodes referenced, want 16 projections", got)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck: %v", err)
	}
}

func TestParallelQuantifyComposePermute(t *testing.T) {
	const vars = 12
	ms := New(vars)
	mp := newPar(t, vars, 4)

	build := func(m *Manager) (f, g Ref) {
		f = buildAdder(m, vars/2)
		x, y := m.IthVar(1), m.IthVar(4)
		xy := m.Xor(x, y)
		g = m.And(f, xy)
		m.Deref(xy)
		return f, g
	}
	fs, gs := build(ms)
	fp, gp := build(mp)

	perm := make([]int, vars)
	for i := range perm {
		perm[i] = (i + 3) % vars
	}
	type result struct{ s, p Ref }
	cases := map[string]result{
		"exists":  {ms.Exists(fs, []int{0, 3}), mp.Exists(fp, []int{0, 3})},
		"forall":  {ms.ForAll(gs, []int{2}), mp.ForAll(gp, []int{2})},
		"compose": {ms.Compose(fs, 2, gs), mp.Compose(fp, 2, gp)},
		"permute": {ms.Permute(fs, perm), mp.Permute(fp, perm)},
		"diff":    {ms.Diff(gs, fs), mp.Diff(gp, fp)},
	}
	cube2s := ms.CubeFromVars([]int{1, 5})
	cube2p := mp.CubeFromVars([]int{1, 5})
	cases["relprod"] = result{ms.AndExists(fs, gs, cube2s), mp.AndExists(fp, gp, cube2p)}
	ms.Deref(cube2s)
	mp.Deref(cube2p)

	a := make([]bool, vars)
	for name, r := range cases {
		for i := 0; i < 1<<vars; i++ {
			for j := range a {
				a[j] = i>>uint(j)&1 == 1
			}
			if ms.Eval(r.s, a) != mp.Eval(r.p, a) {
				t.Fatalf("%s: parallel result diverges from serial at assignment %d", name, i)
			}
		}
	}
	if !mp.Leq(fp, fp) || mp.Leq(One, Zero) {
		t.Fatalf("parallel Leq is broken")
	}
	if err := mp.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck: %v", err)
	}
}

func TestParallelConcurrentClients(t *testing.T) {
	const vars = 14
	const clients = 8
	m := newPar(t, vars, 4)
	m.EnableAutoReorder(8192)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				f := buildAdder(m, vars/2)
				g := m.Exists(f, []int{c % vars, (c + 3) % vars})
				h := m.ITE(f, g, m.IthVar(c%vars))
				and := m.And(g, h)
				if !m.Leq(and, g) {
					errs <- errLeqViolated
					return
				}
				m.Deref(and)
				m.Deref(h)
				m.Deref(g)
				m.Deref(f)
			}
		}(c)
	}
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for i := 0; i < 10; i++ {
			m.GarbageCollect()
		}
	}()
	wg.Wait()
	<-gcDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatalf("DebugCheck after concurrent clients: %v", err)
	}
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != vars {
		t.Fatalf("after release %d nodes referenced, want %d projections", got, vars)
	}
}

var errLeqViolated = errLeq{}

type errLeq struct{}

func (errLeq) Error() string { return "Leq(g AND h, g) must hold" }

// TestParallelEagerDeathUnderContention: the CAS that kills a node
// releases its children and the one that resurrects it references them
// again. Two clients share each cone: while one drops the last reference
// to it, the other rebuilds it, reviving its dead nodes through
// unique-table and computed-cache hits, and one goroutine collects
// meanwhile. Every rebuilt cone must compute its function, no count may
// go negative, and once everything is released only the projections may
// stay referenced.
func TestParallelEagerDeathUnderContention(t *testing.T) {
	const n = 6 // cone c is xnorChain(m, n, c) over 2n variables
	const cones = 4
	const clients = 2 * cones
	m := newPar(t, 2*n, 4)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := c % cones
			a := make([]bool, 2*n)
			for round := 0; round < 40; round++ {
				f := xnorChain(m, n, r)
				// f holds exactly when x_{n+i} = x_i xor bit i of r.
				for i := 0; i < n; i++ {
					a[i] = (round+c)>>i&1 == 1
					a[n+i] = a[i] != (r>>i&1 == 1)
				}
				ok := m.Eval(f, a)
				a[n+round%n] = !a[n+round%n]
				if !ok || m.Eval(f, a) {
					errs <- fmt.Errorf("client %d round %d: cone %d computes another function", c, round, r)
					m.Deref(f)
					return
				}
				m.Deref(f)
			}
		}(c)
	}
	done := make(chan struct{})
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			m.GarbageCollect()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(done)
	<-gcDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := m.Stats().Resurrected; got == 0 {
		t.Fatal("no dead node was resurrected: the clients never raced a death")
	}
	if err := m.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	m.exclusive(func() {
		for idx := range m.nodes {
			if nd := &m.nodes[idx]; nd.level >= 0 && nd.ref < 0 {
				t.Errorf("node %d has count %d", idx, nd.ref)
			}
		}
	})
	m.GarbageCollect()
	if got := m.ReferencedNodeCount(); got != 2*n {
		t.Fatalf("%d nodes referenced after releasing everything, want the %d projections", got, 2*n)
	}
	if got := m.DeadCount(); got != 0 {
		t.Fatalf("%d dead nodes left after a collection", got)
	}
}
