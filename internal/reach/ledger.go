package reach

import (
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/obs"
)

// Quality-ledger instrumentation for traversal iterations. Each outer
// image step files one obs.OpRecord whose masses are state-space
// fractions: MassIn is the fresh states discovered this iteration and
// MassOut the states the outgoing frontier keeps, so mass_retained is
// exactly the fraction the frontier subsetting preserved (1 in BFS and
// on HD iterations whose subset was lossless). Budget pressure comes off
// the manager at record time; abort records carry the cause instead of a
// result side. Everything is gated on the manager's sink having a ledger,
// so un-observed traversals pay one sink lookup per iteration.

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
	ledger    *obs.Ledger
	tr        *TR
	mode      string
	iter      int
	threshold int
	start     time.Time
	sizeIn    int
	massIn    float64
	gc0       time.Duration
	stw0      time.Duration
}

// beginIterLedger opens a ledger record for one iteration; frontier is the
// incoming (pre-image) frontier. Nil when the manager has no ledger.
func (tr *TR) beginIterLedger(mode string, iter, threshold int, frontier bdd.Ref) *iterLedger {
	ledger := obs.Of(tr.M).Ledger()
	if ledger == nil {
		return nil
	}
	st := tr.M.Stats()
	return &iterLedger{
		ledger:    ledger,
		tr:        tr,
		mode:      mode,
		iter:      iter,
		threshold: threshold,
		start:     time.Now(),
		sizeIn:    tr.M.DagSize(frontier),
		massIn:    tr.stateFraction(frontier),
		gc0:       st.GCTime,
		stw0:      st.STWTime,
	}
}

// record files the iteration. fresh is the newly discovered states and
// frontierOut what survives subsetting into the next iteration (equal in
// BFS); abort names the cause when the iteration died instead. Nil-safe.
func (lg *iterLedger) record(fresh, frontierOut bdd.Ref, abort string) {
	if lg == nil {
		return
	}
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
		DurNS:       time.Since(lg.start).Nanoseconds(),
		GCNS:        (st.GCTime - lg.gc0).Nanoseconds(),
		STWNS:       (st.STWTime - lg.stw0).Nanoseconds(),
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
		// The iteration died mid-image: there is no result side, and the
		// inputs may already be deref'd. Report the loss as total.
		rec.MassIn = lg.massIn
		rec.MassRetained = 0
		if rec.MassIn == 0 {
			rec.MassRetained = 1 // abort before any mass was at stake
		}
	}
	lg.ledger.Record(rec)
}

// abortRecord files a bare abort record for a traversal that unwound via
// bdd.OpAborted outside an open iteration ledger (or whose ledger was
// already closed). Used by the recover paths.
func abortRecord(tr *TR, mode string, iter int, reason string) {
	m := tr.M
	obs.Of(m).Ledger().Record(obs.OpRecord{
		Kind:         "reach",
		Op:           mode,
		Iter:         iter,
		MassRetained: 0,
		BudgetLimit:  m.NodeLimit(),
		BudgetLive:   m.NodeCount(),
		Abort:        reason,
	})
}
