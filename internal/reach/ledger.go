package reach

import (
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/obs"
)

// Quality-ledger instrumentation for traversal iterations. Each outer
// image step closes one obs.OpRecord whose masses are state-space
// fractions: MassIn is the fresh states discovered this iteration and
// MassOut the states the outgoing frontier keeps, so mass_retained is
// exactly the fraction the frontier subsetting preserved (1 in BFS and
// on HD iterations whose subset was lossless). Budget pressure comes off
// the manager at record time; the record of an iteration a limit ended
// carries the abort's reason instead of a result side. The traversal
// holds the records and files them when it ends, unless an enclosing
// Run's context was cancelled (see traverse). Everything is gated on the
// manager's sink having a ledger, so un-observed traversals pay one sink
// lookup per iteration.

// stateFraction maps a state set to its fraction of the full state space,
// which is its minterm fraction: the set ranges over the present-state
// variables alone. Only armed traversals pay the sweep.
func (tr *TR) stateFraction(set bdd.Ref) float64 {
	if tr.NumStateBits() == 0 {
		return 0
	}
	return count.Fraction(tr.M, set)
}

type iterLedger struct {
	tr        *TR
	mode      string
	iter      int
	threshold int
	start     time.Time
	sizeIn    int
	massIn    float64
	gc0       time.Duration
}

// beginIterLedger opens a ledger record for one iteration; frontier is the
// incoming (pre-image) frontier. Nil when the manager has no ledger.
func (tr *TR) beginIterLedger(mode string, iter, threshold int, frontier bdd.Ref) *iterLedger {
	if obs.Of(tr.M).Ledger() == nil {
		return nil
	}
	st := tr.M.Stats()
	return &iterLedger{
		tr:        tr,
		mode:      mode,
		iter:      iter,
		threshold: threshold,
		start:     time.Now(),
		sizeIn:    tr.M.DagSize(frontier),
		massIn:    tr.stateFraction(frontier),
		gc0:       st.GCTime,
	}
}

// record closes the iteration's record; the traversal files it when it
// ends. fresh is the newly discovered states and frontierOut what
// survives subsetting into the next iteration (equal in BFS); abort names
// the cause when the iteration died instead.
func (lg *iterLedger) record(fresh, frontierOut bdd.Ref, abort string) obs.OpRecord {
	m := lg.tr.M
	st := m.Stats()
	rec := obs.OpRecord{
		Kind:        "reach",
		Op:          lg.mode,
		Iter:        lg.iter,
		SizeIn:      lg.sizeIn,
		Threshold:   lg.threshold,
		BudgetLimit: m.NodeLimit(),
		BudgetLive:  m.NodeCount(),
		TS:          time.Now().Format(time.RFC3339Nano),
		DurNS:       time.Since(lg.start).Nanoseconds(),
		GCNS:        (st.GCTime - lg.gc0).Nanoseconds(),
		Abort:       abort,
	}
	if abort == "" {
		// The quality trade of the iteration is fresh -> frontierOut: the
		// in side is what the image discovered, the out side what survives
		// subsetting (identical in BFS, so mass_retained = 1 there).
		rec.SizeIn = m.DagSize(fresh)
		rec.MassIn = lg.tr.stateFraction(fresh)
		rec.SizeOut = m.DagSize(frontierOut)
		rec.MassOut = lg.tr.stateFraction(frontierOut)
		if rec.SizeIn > 0 {
			rec.DensityIn = rec.MassIn / float64(rec.SizeIn)
		}
		if rec.SizeOut > 0 {
			rec.DensityOut = rec.MassOut / float64(rec.SizeOut)
		}
	} else {
		// A limit ended the iteration: there is no result side, and the
		// inputs may already be deref'd. Report the loss as total.
		rec.MassIn = lg.massIn
		rec.MassRetained = 0
		if rec.MassIn == 0 {
			rec.MassRetained = 1 // abort before any mass was at stake
		}
	}
	return rec
}
