package sched

import (
	"fmt"

	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// disposition names why a request's stream ended — the counter it lands in.
type disposition int

const (
	dispCompleted disposition = iota // ran to its token cap
	dispCancelled                    // caller's ctx ended it
	dispShed                         // dropped past its TTFT deadline
	dispAborted                      // thrown away by Close or an engine failure
)

// endLocked ends rs's stream; it is the one place a stream closes. A non-nil
// err goes out first as the terminal error token. That send is guarded: the
// buffer is sized MaxNew+1 and a live request has sent at most MaxNew tokens,
// so there is room, but a terminal send must never be able to stall the loop
// under mu on that arithmetic. The stream then closes, the request leaves the
// pending count, and it lands in its disposition's counter: a completed,
// cancelled or shed request records its outcome, an aborted one records
// nothing. The caller holds mu and has taken rs off the queue, or released
// the pages it held as a running request (the next syncViewLocked takes it
// off the running set).
func (e *Engine) endLocked(rs *reqState, disp disposition, err error) {
	rs.stopWatch()
	if err != nil {
		select {
		case rs.ch <- Token{Err: err}:
		default:
		}
	}
	close(rs.ch)
	e.leaveLocked()
	switch disp {
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

// leaveLocked drops a request from the pending count — it ended, or another
// engine resumed it — and releases Drain waiters once nothing is pending. The
// caller holds mu.
func (e *Engine) leaveLocked() {
	e.pending--
	if e.pending == 0 {
		for _, w := range e.waiters {
			close(w)
		}
		e.waiters = nil
	}
}

// handedLocked settles a request another engine resumed: its stream and
// record went with it, so only the pending count and MigratedOut move. The
// caller holds mu.
func (e *Engine) handedLocked() {
	e.stats.MigratedOut++
	e.leaveLocked()
}

// Handle is a live request on its way between engines: what an engine's
// Config.Handoff hook is offered. It carries the request's stream, the tokens
// already sent on it and its record; Resume moves them.
type Handle struct {
	rs      *reqState
	resumed bool
}

// Request returns the request as it was submitted.
func (h *Handle) Request() Request { return h.rs.req }

// Failovers counts the failed engines that have offered the request, the
// one offering it now included: 0 for a request no failed engine offered.
func (h *Handle) Failovers() int { return h.rs.failovers }

// offer hands rs, off both of the engine's lists, to the Handoff hook and
// reports whether another engine resumed it. Until the hook returns, offered
// holds the request, so the recover boundary takes it back if the hook
// panics.
func (e *Engine) offer(rs *reqState) bool {
	if e.cfg.Handoff == nil {
		return false
	}
	h := &Handle{rs: rs}
	e.offered = h
	e.cfg.Handoff(h)
	e.offered = nil
	return h.resumed
}

// abortLocked ends every queued and running stream without an outcome: Close
// threw them away, and a drain it releases reports ErrClosed. The caller
// holds mu.
func (e *Engine) abortLocked() {
	if len(e.queue) > 0 || len(e.running) > 0 {
		e.aborted = true
	}
	for _, rs := range e.queue {
		e.endLocked(rs, dispAborted, nil)
	}
	e.queue = nil
	for _, rs := range e.running {
		e.releaseLocked(rs)
		e.endLocked(rs, dispAborted, nil)
	}
	e.syncViewLocked()
}

// fail is the recover boundary's: it marks the engine failed with err and
// gives up every request it held — queued, running, and a preemption victim
// the Handoff hook held when it panicked. Each is offered to the hook outside
// the lock, as a restart and a failover hop; one no other engine resumes ends
// on err, without an outcome — with the panic's value, if the hook panicked
// on it. The requests stay pending until then, so a Drain of this engine
// returns only once each has gone one way or the other.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	e.failure = err
	orphans := append(e.queue, e.running...)
	if h := e.offered; h != nil && h.resumed {
		e.handedLocked()
	} else if h != nil {
		orphans = append(orphans, h.rs)
	}
	for _, rs := range e.running {
		e.releaseLocked(rs)
	}
	e.queue = nil
	e.syncViewLocked()
	e.mu.Unlock()
	for _, rs := range orphans {
		rs.preempts++
		rs.failovers++
		cause := err
		resumed := func() (resumed bool) {
			defer func() {
				if r := recover(); r != nil {
					resumed = e.offered.resumed
					cause = fmt.Errorf("%w; Handoff hook panicked: %v", err, r)
				}
			}()
			return e.offer(rs)
		}()
		e.mu.Lock()
		if resumed {
			e.handedLocked()
		} else {
			e.endLocked(rs, dispAborted, cause)
		}
		e.mu.Unlock()
	}
}
