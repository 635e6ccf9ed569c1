package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Admission control: each tenant owns one operation slot (BDD managers
// serialize mutation anyway, so concurrent ops on one tenant would only
// contend), a bounded wait queue, and a deadline on how long a request
// may wait for the slot. A request that finds the queue full — or waits
// past the deadline — is shed with 429 and a Retry-After hint instead of
// piling onto a loaded tenant. A request whose client leaves while it
// waits drops out of the queue; that is not a shed.

// ShedError reports a shed request and how long the client should back
// off before retrying.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: %s (retry after %v)", e.Reason, e.RetryAfter)
}

type admission struct {
	slot       chan struct{} // capacity 1: the tenant's operation slot
	waiting    atomic.Int64  // requests currently queued for the slot
	queueDepth int64
	waitMax    time.Duration
}

func newAdmission(queueDepth int, waitMax time.Duration) *admission {
	if queueDepth < 1 {
		queueDepth = 1
	}
	if waitMax <= 0 {
		waitMax = 5 * time.Second
	}
	a := &admission{
		slot:       make(chan struct{}, 1),
		queueDepth: int64(queueDepth),
		waitMax:    waitMax,
	}
	a.slot <- struct{}{}
	return a
}

// acquire claims the tenant's operation slot, queueing up to queueDepth
// waiters and shedding (a *ShedError) past the wait deadline. The wait
// also ends when ctx does, with ctx's error. On success the returned
// release function must be called exactly once.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if a.waiting.Add(1) > a.queueDepth {
		a.waiting.Add(-1)
		return nil, &ShedError{
			Reason:     fmt.Sprintf("queue full (%d waiting)", a.queueDepth),
			RetryAfter: a.waitMax,
		}
	}
	defer a.waiting.Add(-1)
	timer := time.NewTimer(a.waitMax)
	defer timer.Stop()
	select {
	case <-a.slot:
		return func() { a.slot <- struct{}{} }, nil
	case <-timer.C:
		return nil, &ShedError{
			Reason:     fmt.Sprintf("wait deadline %v exceeded", a.waitMax),
			RetryAfter: a.waitMax,
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
