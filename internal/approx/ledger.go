package approx

import (
	"time"

	"bddkit/internal/bdd"
	"bddkit/internal/count"
	"bddkit/internal/obs"
)

// Quality-ledger instrumentation shared by every approximation operator.
// beginLedger snapshots the input side (DAG size, minterm mass, GC
// time already accrued) and done files the obs.OpRecord in the ledger of
// the manager's sink. The nil receiver is the disabled path: when the
// manager has no ledger beginLedger returns nil and neither the DagSize
// sweep nor the count.Fraction sweep runs, so un-observed workloads pay
// one sink lookup per operator call.

type opLedger struct {
	ledger    *obs.Ledger
	m         *bdd.Manager
	op        string
	threshold int
	start     time.Time
	sizeIn    int
	massIn    float64
	gc0       time.Duration
}

// beginLedger opens a ledger record for op applied to f. threshold is the
// operator's node target (0 = none).
func beginLedger(m *bdd.Manager, op string, f bdd.Ref, threshold int) *opLedger {
	ledger := obs.Of(m).Ledger()
	if ledger == nil {
		return nil
	}
	st := m.Stats()
	return &opLedger{
		ledger:    ledger,
		m:         m,
		op:        op,
		threshold: threshold,
		start:     time.Now(),
		sizeIn:    m.DagSize(f),
		massIn:    count.Fraction(m, f),
		gc0:       st.GCTime,
	}
}

// done files the record for result r. Nil-safe (disabled path).
func (lg *opLedger) done(r bdd.Ref) {
	if lg == nil {
		return
	}
	m := lg.m
	st := m.Stats()
	rec := obs.OpRecord{
		Kind:        "approx",
		Op:          lg.op,
		SizeIn:      lg.sizeIn,
		SizeOut:     m.DagSize(r),
		MassIn:      lg.massIn,
		MassOut:     count.Fraction(m, r),
		Threshold:   lg.threshold,
		BudgetLimit: m.NodeLimit(),
		BudgetLive:  m.NodeCount(),
		DurNS:       time.Since(lg.start).Nanoseconds(),
		GCNS:        (st.GCTime - lg.gc0).Nanoseconds(),
	}
	if rec.SizeIn > 0 {
		rec.DensityIn = rec.MassIn / float64(rec.SizeIn)
	}
	if rec.SizeOut > 0 {
		rec.DensityOut = rec.MassOut / float64(rec.SizeOut)
	}
	lg.ledger.Record(rec)
}
