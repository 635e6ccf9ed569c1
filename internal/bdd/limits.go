package bdd

import (
	"fmt"
	"time"
)

// Operation limits. Symbolic operations can blow up unpredictably (a
// single relational product may dwarf the rest of a traversal), so callers
// running under budgets can arm a wall-clock deadline and/or a live-node
// ceiling. When a limit trips inside node allocation the manager panics
// with OpAborted; the public helper RunLimited (or any caller-side recover)
// converts that into an error at a clean boundary.
//
// After an aborted operation the manager remains structurally valid —
// every node is intact and all previously returned Refs keep working — but
// references owned by the interrupted recursion are stranded (a bounded
// memory leak until the manager is discarded). Budgeted drivers such as
// the reachability engine treat an abort as "this traversal is over",
// which is exactly the paper's usage.

// OpAborted is the panic value raised when an armed limit trips.
type OpAborted struct {
	// Reason describes which limit tripped.
	Reason string
}

func (e OpAborted) Error() string { return "bdd: operation aborted: " + e.Reason }

// deadlineCheckInterval balances abort latency against the cost of reading
// the clock on every allocation.
const deadlineCheckInterval = 4096

// SetDeadline arms a wall-clock limit for subsequent operations; the zero
// time disarms it. The deadline is checked every few thousand node
// allocations, so abort latency is microseconds, not relational products.
func (m *Manager) SetDeadline(t time.Time) {
	m.exclusive(func() {
		m.deadline = t
		m.allocTick = 0
	})
}

// SetNodeLimit arms a live-node ceiling for subsequent operations;
// 0 disarms it.
func (m *Manager) SetNodeLimit(n int) {
	m.exclusive(func() { m.nodeLimit = n })
}

// NodeLimit returns the armed live-node ceiling (0 = none). The read is
// advisory: limits are configured between operations, so instrumentation
// reading it mid-run (budget-pressure gauges) sees the value that governs
// the current operation.
func (m *Manager) NodeLimit() int { return m.nodeLimit }

// Deadline returns the armed wall-clock limit (zero time = none), advisory
// like NodeLimit.
func (m *Manager) Deadline() time.Time { return m.deadline }

// checkLimits is called from node allocation.
func (m *Manager) checkLimits() {
	if m.noGC {
		// Reordering is in flight: the unique table is mid-surgery and
		// must never be abandoned by a panic, so limits are suspended
		// until the swap sequence completes.
		return
	}
	if m.nodeLimit > 0 && m.liveCount > m.nodeLimit {
		reason := fmt.Sprintf("live nodes %d exceed limit %d", m.liveCount, m.nodeLimit)
		if m.observer != nil {
			// Node-budget exhaustion is a diagnosis-worthy event (unlike
			// routine deadline aborts): give the flight recorder a chance
			// to dump before the stack unwinds.
			m.observer.Abort(reason)
		}
		panic(OpAborted{Reason: reason})
	}
	if !m.deadline.IsZero() {
		m.allocTick++
		if m.allocTick >= deadlineCheckInterval {
			m.allocTick = 0
			if time.Now().After(m.deadline) {
				panic(OpAborted{Reason: "deadline exceeded"})
			}
		}
	}
}

// RunLimited executes fn under the given deadline and node limit and
// converts an OpAborted panic into an error. Other panics propagate. The
// previous limits are restored afterwards.
func (m *Manager) RunLimited(deadline time.Time, nodeLimit int, fn func() error) (err error) {
	var prevDeadline time.Time
	var prevLimit int
	m.exclusive(func() {
		prevDeadline, prevLimit = m.deadline, m.nodeLimit
		m.deadline = deadline
		m.allocTick = 0
		m.nodeLimit = nodeLimit
	})
	defer func() {
		m.exclusive(func() {
			m.deadline, m.nodeLimit = prevDeadline, prevLimit
		})
		if r := recover(); r != nil {
			if ab, ok := r.(OpAborted); ok {
				err = ab
				return
			}
			panic(r)
		}
	}()
	return fn()
}
