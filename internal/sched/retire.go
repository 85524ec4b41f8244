package sched

import (
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// disposition names why a request's stream ended — the counter it lands in.
type disposition int

const (
	dispCompleted disposition = iota // ran to its token cap
	dispCancelled                    // caller's ctx ended it
	dispShed                         // dropped past its TTFT deadline
	dispMigrated                     // handed to another engine by Config.Migrate
	dispAborted                      // thrown away by Close or an engine failure
)

// endLocked ends rs's stream; it is the one place a stream closes. A non-nil
// err goes out first as the terminal error token. That send is guarded: the
// buffer is sized MaxNew+1 and a live request has sent at most MaxNew tokens,
// so there is room, but a terminal send must never be able to stall the loop
// under mu on that arithmetic. The stream then closes, Drain waiters are
// released once nothing is pending, and the request lands in its
// disposition's counter: a completed, cancelled or shed request records its
// outcome, a migrated one leaves its record to the fleet layer that resubmits
// it, an aborted one records nothing. The caller holds mu, has released the
// pages rs held and has taken it off the queue or the running set.
func (e *Engine) endLocked(rs *reqState, disp disposition, err error) {
	rs.stopWatch()
	if err != nil {
		select {
		case rs.ch <- Token{Err: err}:
		default:
		}
	}
	close(rs.ch)
	e.pending--
	if e.pending == 0 {
		for _, w := range e.waiters {
			close(w)
		}
		e.waiters = nil
	}
	switch disp {
	case dispMigrated:
		e.stats.MigratedOut++
		return
	case dispAborted:
		return
	case dispCompleted:
		e.stats.Completed++
	case dispShed:
		e.stats.Shed++
	case dispCancelled:
		e.stats.Cancelled++
	}
	now := e.Now()
	first := rs.firstTok
	if first < 0 {
		first = now
	}
	start := rs.start
	if start < 0 {
		start = now
	}
	e.outcomes = append(e.outcomes, serving.Outcome{
		Req: workload.Request{
			ID:          rs.req.ID,
			PromptLen:   len(rs.req.Prompt),
			RefLen:      rs.req.Predicted,
			ArrivalTime: rs.req.Arrival,
		},
		RespLen:     len(rs.generated),
		Start:       start,
		FirstToken:  first,
		Finish:      now,
		Preemptions: rs.preempts,
	})
}

// abortLocked ends every queued and running stream without an outcome. Close
// calls it with err nil: a drain it releases reports ErrClosed when work was
// thrown away. The recover boundary calls it with the failure, which marks the
// engine failed: every stream's terminal token carries err, and every later
// Submit and Drain returns it. The caller holds mu.
func (e *Engine) abortLocked(err error) {
	if err != nil {
		e.failure = err
	} else if len(e.queue) > 0 || len(e.running) > 0 {
		e.aborted = true
	}
	for _, rs := range e.queue {
		e.endLocked(rs, dispAborted, err)
	}
	e.queue = nil
	for _, rs := range e.running {
		e.releaseLocked(rs)
		e.endLocked(rs, dispAborted, err)
	}
	e.running = nil
	e.syncViewLocked()
}
