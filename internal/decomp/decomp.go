// Package decomp implements the BDD decomposition algorithms of Section 3
// of the DAC'98 paper "Approximation and Decomposition of Binary Decision
// Diagrams":
//
//   - the generic bottom-up two-way factoring over an arbitrary set of
//     decomposition points (Figure 5 of the paper), generalizing the
//     single-variable split of Equation 1;
//   - the Band and Disjoint heuristics for choosing decomposition points;
//   - the Cofactor baseline of Cabodi et al. [6] and Narayan et al. [19]:
//     split on the variable minimizing the larger cofactor;
//   - McMillan's canonical conjunctive decomposition (CAV'96, reference
//     [18]) as the related approach discussed in the paper.
//
// All factor pairs satisfy G ∧ H = f (conjunctive) or G ∨ H = f
// (disjunctive). Returned references are owned by the caller.
package decomp

import (
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/obs"
)

// Points is a set of decomposition points, identified by node id (see
// bdd.Ref.ID); the factoring cuts the BDD at these nodes.
type Points map[uint32]bool

// Pair is a two-way factoring of a function.
type Pair struct {
	G, H bdd.Ref
}

// Deref releases both factors.
func (p Pair) Deref(m *bdd.Manager) {
	m.Deref(p.G)
	m.Deref(p.H)
}

// SharedSize returns the number of distinct nodes shared between the two
// factors' DAGs — the "Shared" column of Table 4.
func (p Pair) SharedSize(m *bdd.Manager) int {
	return m.SharingSize([]bdd.Ref{p.G, p.H})
}

// Decompose factors f conjunctively over the given decomposition points:
// it returns G, H with G ∧ H = f. At each decomposition point with top
// variable x and cofactors f_t, f_e the factors are seeded per Equation 1
// of the paper (g = x + f_e, h = ¬x + f_t); above the points the factors
// of the children are combined, choosing at every node the pairing
// (straight or crossed) that best balances the estimated factor sizes —
// the balance objective the paper's algorithm pursues.
func Decompose(m *bdd.Manager, f bdd.Ref, pts Points) Pair {
	return DecomposeConfig(m, f, pts, Config{})
}

// Config tunes the generic decomposition; the zero value is the default
// algorithm.
type Config struct {
	// SkewBalancing enables the estimate-driven choice between the
	// straight and crossed child-factor pairings (picking whichever
	// minimizes the estimated size skew). The ablation study in
	// internal/bench found straight pairing to produce smaller maximum
	// factors on the corpus (the size estimates ignore sharing and
	// mislead the crossing choice), so straight is the default and this
	// knob preserves the alternative for experiments.
	SkewBalancing bool
}

// DecomposeConfig is Decompose with explicit combine-step configuration.
func DecomposeConfig(m *bdd.Manager, f bdd.Ref, pts Points, cfg Config) Pair {
	defer m.PauseAutoReorder()()
	lg := beginLedger(m, "conj", f)
	d := &decomposer{
		m: m, pts: pts, cfg: cfg,
		opG: m.CacheOp(), opH: m.CacheOp(),
		est: make(map[bdd.Ref][2]int),
	}
	e := d.rec(f)
	p := Pair{G: e.g, H: e.h}
	lg.done(p.SharedSize(m))
	return p
}

// DecomposeDisjunctive factors f disjunctively (G ∨ H = f) by dualizing:
// the conjunctive factors of ¬f are complemented.
func DecomposeDisjunctive(m *bdd.Manager, f bdd.Ref, pts Points) Pair {
	lg := beginLedger(m, "disj", f)
	p := Decompose(m, f.Complement(), pts)
	p = Pair{G: p.G.Complement(), H: p.H.Complement()}
	lg.done(p.SharedSize(m))
	return p
}

// decompLedger captures the input side of a decomposition for the quality
// ledger. Decompositions are exact — G∧H (or G∨H, or the McMillan
// conjunction) equals f — so mass is retained by construction and the
// interesting quality signal is structural: how many shared nodes the
// factored form needs versus the monolithic input.
type decompLedger struct {
	ledger *obs.Ledger
	m      *bdd.Manager
	op     string
	start  time.Time
	sizeIn int
	massIn float64
	gc0    time.Duration
}

func beginLedger(m *bdd.Manager, op string, f bdd.Ref) *decompLedger {
	ledger := obs.Of(m).Ledger()
	if ledger == nil {
		return nil
	}
	st := m.Stats()
	return &decompLedger{
		ledger: ledger, m: m, op: op, start: time.Now(),
		sizeIn: m.DagSize(f), massIn: count.Fraction(m, f),
		gc0: st.GCTime,
	}
}

// done files the record; sizeOut is the shared size of the factored form.
// Nil-safe (disabled path).
func (lg *decompLedger) done(sizeOut int) {
	if lg == nil {
		return
	}
	st := lg.m.Stats()
	rec := obs.OpRecord{
		Kind:         "decomp",
		Op:           lg.op,
		SizeIn:       lg.sizeIn,
		SizeOut:      sizeOut,
		MassIn:       lg.massIn,
		MassOut:      lg.massIn, // exact: factors reconstruct f
		MassRetained: 1,
		BudgetLimit:  lg.m.NodeLimit(),
		BudgetLive:   lg.m.NodeCount(),
		DurNS:        time.Since(lg.start).Nanoseconds(),
		GCNS:         (st.GCTime - lg.gc0).Nanoseconds(),
	}
	if rec.SizeIn > 0 {
		rec.DensityIn = rec.MassIn / float64(rec.SizeIn)
	}
	if rec.SizeOut > 0 {
		rec.DensityOut = rec.MassOut / float64(rec.SizeOut)
	}
	lg.ledger.Record(rec)
}

type entry struct {
	g, h   bdd.Ref
	cg, ch int // rough node-count estimates used for balancing
}

type decomposer struct {
	m   *bdd.Manager
	pts Points
	cfg Config
	// The per-node factor pairs are memoized in the manager's shared
	// computed table under two fresh per-invocation operation codes (one
	// per factor); a lossy cache is fine because an evicted pair is
	// simply recomputed. The size estimates ride in a plain side map —
	// they hold no node references, so they need no eviction handling.
	opG, opH uint32
	est      map[bdd.Ref][2]int
}

// rec implements the decomp procedure of Figure 5 on seen functions. The
// returned entry's g and h each carry one reference owned by the caller.
func (d *decomposer) rec(f bdd.Ref) entry {
	m := d.m
	if f.IsConstant() {
		return entry{g: f, h: bdd.One}
	}
	if g, ok := m.CacheLookup(d.opG, f, 0, 0); ok {
		if h, ok := m.CacheLookup(d.opH, f, 0, 0); ok {
			// Either factor may be dead on a hit; revive both before
			// any allocation can collect them.
			c := d.est[f]
			return entry{g: m.Ref(g), h: m.Ref(h), cg: c[0], ch: c[1]}
		}
	}
	x := m.IthVar(m.Var(f))
	ft, fe := m.Hi(f), m.Lo(f)
	var e entry
	if d.pts[f.ID()] {
		// Equation 1: g covers the else cofactor, h the then cofactor;
		// each factor has one cofactor forced to 1.
		e.g = m.Or(x, fe)
		e.h = m.Or(x.Complement(), ft)
		e.cg = m.DagSize(e.g)
		e.ch = m.DagSize(e.h)
	} else {
		et := d.rec(ft)
		ee := d.rec(fe)
		// Straight pairing: g = x·gt + ¬x·ge; crossed pairing swaps the
		// else-branch contributions. Both yield G·H = f; pick the one
		// with the better size balance.
		sg, sh := et.cg+ee.cg, et.ch+ee.ch
		cg, ch := et.cg+ee.ch, et.ch+ee.cg
		straightSkew := sg - sh
		if straightSkew < 0 {
			straightSkew = -straightSkew
		}
		crossedSkew := cg - ch
		if crossedSkew < 0 {
			crossedSkew = -crossedSkew
		}
		if !d.cfg.SkewBalancing || straightSkew <= crossedSkew {
			e.g = m.ITE(x, et.g, ee.g)
			e.h = m.ITE(x, et.h, ee.h)
			e.cg, e.ch = sg+1, sh+1
		} else {
			e.g = m.ITE(x, et.g, ee.h)
			e.h = m.ITE(x, et.h, ee.g)
			e.cg, e.ch = cg+1, ch+1
		}
		m.Deref(et.g)
		m.Deref(et.h)
		m.Deref(ee.g)
		m.Deref(ee.h)
	}
	m.CacheInsert(d.opG, f, 0, 0, e.g)
	m.CacheInsert(d.opH, f, 0, 0, e.h)
	d.est[f] = [2]int{e.cg, e.ch}
	return e
}
