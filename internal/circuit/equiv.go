package circuit

import (
	"fmt"

	"bddkit/internal/bdd"
)

// Combinational equivalence checking: two netlists are equivalent when
// every same-named output computes the same function of the same-named
// inputs. Both circuits are compiled into one BDD manager with shared
// input variables, so equivalence per output reduces to reference
// equality (canonicity) and a counterexample falls out of the XOR.

// Mismatch is an equivalence counterexample.
type Mismatch struct {
	Output string          // name of the differing output
	Inputs map[string]bool // input assignment exposing the difference
}

func (mm *Mismatch) String() string {
	return fmt.Sprintf("output %s differs (inputs %v)", mm.Output, mm.Inputs)
}

// Equivalent checks combinational equivalence of two netlists. Inputs are
// matched by name (both circuits must have the same input set); outputs
// are matched by name, and both circuits must expose the same output
// names. Latches are not supported (sequential equivalence is a
// reachability problem — see internal/reach). The shared manager reports
// to observer o (nil = unobserved).
func Equivalent(a, b *Netlist, o bdd.Observer) (bool, *Mismatch, error) {
	if len(a.Latches) > 0 || len(b.Latches) > 0 {
		return false, nil, fmt.Errorf("circuit: Equivalent handles combinational netlists only")
	}
	if err := a.Validate(); err != nil {
		return false, nil, err
	}
	if err := b.Validate(); err != nil {
		return false, nil, err
	}
	// Shared input variables by name.
	m := bdd.NewWithConfig(0, bdd.Config{Observer: o})
	varOf := map[string]int{}
	for _, nl := range []*Netlist{a, b} {
		for _, s := range nl.Inputs {
			name := nl.NameOf(s)
			if _, ok := varOf[name]; !ok {
				v := m.AddVar()
				varOf[name] = m.Var(v)
			}
		}
	}
	if len(varOf) != len(a.Inputs) || len(varOf) != len(b.Inputs) {
		return false, nil, fmt.Errorf("circuit: input sets differ (%d vs %d names, %d total)",
			len(a.Inputs), len(b.Inputs), len(varOf))
	}
	outputsOf := func(nl *Netlist) (map[string]bdd.Ref, []bdd.Ref, error) {
		vals, err := EvalNetlistBDD(m, nl, func(sig Sig, _ Op) bdd.Ref {
			return m.IthVar(varOf[nl.NameOf(sig)])
		})
		if err != nil {
			return nil, nil, err
		}
		outs := make(map[string]bdd.Ref, len(nl.Outputs))
		for i, s := range nl.Outputs {
			outs[nl.OutName[i]] = m.Ref(vals[s])
		}
		return outs, vals, nil
	}
	release := func(outs map[string]bdd.Ref, vals []bdd.Ref) {
		for _, r := range outs {
			m.Deref(r)
		}
		for _, r := range vals {
			m.Deref(r)
		}
	}
	aOuts, aVals, err := outputsOf(a)
	if err != nil {
		return false, nil, err
	}
	defer release(aOuts, aVals)
	bOuts, bVals, err := outputsOf(b)
	if err != nil {
		return false, nil, err
	}
	defer release(bOuts, bVals)
	if len(aOuts) != len(bOuts) {
		return false, nil, fmt.Errorf("circuit: output sets differ (%d vs %d)", len(aOuts), len(bOuts))
	}
	for name, fa := range aOuts {
		fb, ok := bOuts[name]
		if !ok {
			return false, nil, fmt.Errorf("circuit: output %q missing from %s", name, b.Name)
		}
		if fa == fb {
			continue // canonicity: identical references are equal functions
		}
		diff := m.Xor(fa, fb)
		assignment := m.PickOneMinterm(diff, m.NumVars())
		m.Deref(diff)
		inputs := make(map[string]bool, len(varOf))
		for in, v := range varOf {
			inputs[in] = assignment[v]
		}
		return false, &Mismatch{Output: name, Inputs: inputs}, nil
	}
	return true, nil, nil
}
