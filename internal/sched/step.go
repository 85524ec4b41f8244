package sched

import (
	"time"

	"rethinkkv/internal/core"
)

// preemptForStep ensures the pages this iteration will open fit the
// budget. Unpinned cached pages go first, least recently released first;
// only when none is left are victims evicted back to the queue (their pages
// stay cached, unpinned, so the next pass of this loop takes just what the
// step needs and a re-admission resumes from the prefix that survived). The
// submit-time invariant guarantees a lone request always fits, so the loop
// terminates with at least one runner.
func (e *Engine) preemptForStep() {
	if e.kv.Budget() == 0 {
		return
	}
	for {
		needs := 0
		for _, rs := range e.running {
			// A lane whose next append opens a page no promise covers charges
			// one more. Admission promised every prompt page (a replay tail's
			// too) and the first decode page, so mid-prefill requests do not.
			if rs.sess != nil && rs.sess.Pos()%e.cfg.PageTokens == 0 && rs.cache.Promised() == 0 {
				needs++
			}
		}
		over := e.chargedPages() + needs - e.kv.Budget()
		if over <= 0 {
			return
		}
		if e.tree.pages > e.tree.pinned {
			e.mu.Lock()
			for ; over > 0 && e.tree.evict(); over-- {
			}
			e.mu.Unlock()
			continue
		}
		if len(e.running) <= 1 {
			return
		}
		// The victim is the request that ranks last under the policy: the
		// newest arrival under FCFS (minimum lost work for the oldest
		// requests), the longest predicted remainder under SJF.
		v := 0
		for i := 1; i < len(e.running); i++ {
			if e.before(e.running[v], e.running[i]) {
				v = i
			}
		}
		rs := e.running[v]
		e.mu.Lock()
		e.stats.Preemptions++
		if rs.sess == nil {
			e.stats.PrefillPreempted++
		}
		e.releaseLocked(rs)
		rs.preempts++
		e.syncViewLocked()
		e.mu.Unlock()
		// The fleet layer may resume the victim on a less loaded engine
		// instead: every emitted token is already in the buffered channel,
		// which moves with it.
		resumed := e.offer(rs)
		e.mu.Lock()
		if resumed {
			e.handedLocked()
		} else {
			e.queue = append(e.queue, rs)
		}
		e.mu.Unlock()
	}
}

// reapCancelled retires running requests whose context is done before
// spending another step on them. The view mirrors refresh in the same
// critical section as the retires: the last retire releases Drain waiters,
// and a caller returning from Drain must not read the pre-reap page count.
func (e *Engine) reapCancelled() {
	e.mu.Lock()
	for _, rs := range e.running {
		if rs.ctx.Err() != nil {
			e.releaseLocked(rs)
			e.endLocked(rs, dispCancelled, nil)
		}
	}
	e.syncViewLocked()
	e.mu.Unlock()
}

// stepOnce runs one scheduling iteration: every prefill-complete session
// decodes one token, mid-prefill requests advance prompt chunks in the
// same fused weight pass (core.StepMixedStatsInto), and finishers retire. The
// iteration packs chunks from every mid-prefill request, oldest first, until
// decode lanes + chunk tokens fill the TokenBudget. Every token is sent in
// the iteration whose logits decided it: a request whose final chunk lands this iteration gets its first
// token now and becomes a decode session for the next one, and a request
// retires on the pass that decides its MaxNew-th token, which is never fed —
// exactly the token stream an admission-time full prefill would have
// produced, without ever stalling the running batch for more than one
// budgeted pass's step time.
func (e *Engine) stepOnce() {
	e.loopSteps++
	if e.cfg.StepHook != nil {
		// Fault-injection seam: runs outside mu so an injected panic lands
		// on the recover boundary with no lock held, exactly like a panic
		// in the fused compute pass below.
		e.cfg.StepHook(e.loopSteps)
	}
	stepStart := time.Now()
	// Partition the running set: decode lanes step, mid-prefill requests
	// are packed below. preemptForStep made room for the pages decode
	// appends open past their promises; prefill appends land in pages
	// promised at admission, so packing more chunks charges nothing.
	e.stepSessions = e.stepSessions[:0]
	e.stepReqs = e.stepReqs[:0]
	e.chunks = e.chunks[:0]
	e.chunkReqs = e.chunkReqs[:0]
	for _, rs := range e.running {
		if rs.sess == nil {
			continue
		}
		e.stepReqs = append(e.stepReqs, rs)
		e.stepSessions = append(e.stepSessions, rs.sess)
	}

	// Pack this iteration's prefill chunks, oldest admission first: the pass
	// carries chunks from every mid-prefill request until decode lanes +
	// chunk tokens reach the TokenBudget (the oldest prompt always
	// progresses by at least one token, even when decode lanes alone exceed
	// the budget).
	remaining := max(e.cfg.TokenBudget-len(e.stepSessions), 1)
	for _, rs := range e.running {
		// A prefix hit may have covered the whole dense span (possible only
		// with a replay tail): no chunk to run, the session starts below.
		if rs.sess != nil || rs.prefilled == rs.dense() {
			continue
		}
		n := min(rs.dense()-rs.prefilled, e.cfg.PrefillChunk, remaining)
		e.chunks = append(e.chunks, core.PrefillChunk{
			Tokens: rs.prompt[rs.prefilled : rs.prefilled+n],
			Cache:  rs.cache,
			// The chunk that ends the prompt decides the next token. One that
			// ends the dense span short of a replay tail skips the logits
			// pass: the next token is the tail's first, a known prompt token.
			Final: rs.prefilled+n == len(rs.prompt),
		})
		e.chunkReqs = append(e.chunkReqs, rs)
		remaining -= n
		if remaining <= 0 {
			break
		}
	}
	if cap(e.stepToks) < len(e.stepSessions) {
		e.stepToks = make([]int, len(e.stepSessions))
	}
	toks := e.stepToks[:len(e.stepSessions)]
	if cap(e.chunkNexts) < len(e.chunks) {
		e.chunkNexts = make([]int, len(e.chunks))
	}
	nexts := e.chunkNexts[:len(e.chunks)]
	var stepStats core.StepStats
	core.StepMixedStatsInto(e.pool, e.stepSessions, toks, e.chunks, nexts, &stepStats)
	// The page peak: every page this pass opened is charged now, and nothing
	// has been released yet. It is folded into the post-step critical
	// section below, one lock round-trip per iteration.
	peakPages := e.usedPages()
	chunkToks := 0
	for i, rs := range e.chunkReqs {
		chunkToks += len(e.chunks[i].Tokens)
		rs.prefilled += len(e.chunks[i].Tokens)
	}
	now := e.Now()

	e.mu.Lock()
	e.stats.Steps++
	if peakPages > e.stats.PeakPages {
		e.stats.PeakPages = peakPages
	}
	e.stats.SparsePagesSelected += stepStats.SparsePagesSelected
	e.stats.SparsePagesTotal += stepStats.SparsePagesTotal
	e.stats.PrefillChunks += len(e.chunkReqs)
	if len(e.chunkReqs) > 1 {
		e.stats.PackedChunks += len(e.chunkReqs)
	}
	if len(e.chunkReqs) > 0 && len(e.stepReqs) > 0 {
		e.stats.MixedSteps++
	}
	e.stats.BudgetTokens += len(e.stepReqs) + chunkToks
	// Every token this pass decided leaves now: a Final chunk's first output
	// token, and each decode lane's next one. The pages a request filled go
	// into the prefix cache before it can retire, so its last page outlives it.
	for i, rs := range e.chunkReqs {
		e.sealLocked(rs)
		if nexts[i] >= 0 { // -1 unless the chunk was Final
			e.emitLocked(rs, nexts[i], now)
		}
	}
	for i, rs := range e.stepReqs {
		if rs.replay > 0 {
			// A replay step re-advanced an already-emitted token: it is in
			// rs.prompt (and, for a local preemption, rs.generated and the
			// buffered channel) already — record the prompt token as cached.
			// Only the step that fed the tail's last token decided a new one.
			rs.replay--
			rs.prefilled++
			if rs.replay > 0 {
				continue
			}
		}
		e.sealLocked(rs)
		e.emitLocked(rs, toks[i], now)
	}
	// Fold this iteration's wall time into the live step-cost EWMA the
	// fleet's view sampler exposes (View.StepSeconds).
	if dur := time.Since(stepStart).Seconds(); e.viewStep == 0 {
		e.viewStep = dur
	} else {
		e.viewStep = 0.8*e.viewStep + 0.2*dur
	}
	e.syncViewLocked()
	e.mu.Unlock()
	// A request whose dense span is complete decodes from the next iteration
	// on. Its session starts on the token that follows the span: a replay
	// tail's first, or the one its Final chunk just decided and sent.
	for _, rs := range e.running {
		if rs.sess == nil && rs.prefilled == rs.dense() {
			rs.sess = core.NewPrefilledStepSession(e.m, rs.cache, rs.tokenAt(rs.prefilled))
		}
	}
	// Drop chunk, session and request references so a retired request's KV
	// cache is not pinned by the reused scratch until the next iteration.
	clear(e.chunks)
	clear(e.stepSessions)
	clear(e.stepReqs)
	clear(e.chunkReqs)
}

// emitLocked streams the token the pass just decided for rs and, when that
// was its MaxNew-th, retires it — the token is never fed, so a completed
// request runs MaxNew-1 decode lane-steps and caches all but its last token.
// The caller holds mu and has sealed the pages the pass filled; the next
// syncViewLocked drops a retired request from the running set.
func (e *Engine) emitLocked(rs *reqState, tok int, now float64) {
	rs.generated = append(rs.generated, tok)
	if rs.firstTok < 0 {
		rs.firstTok = now
	}
	// Data-token send, deliberately unguarded: the buffer is sized
	// MaxNew+1 at Submit and a request retires at MaxNew generated
	// tokens, so at most MaxNew data tokens ever land here and room is
	// structurally guaranteed even when the caller abandoned the
	// stream. Dropping a data token (as a guarded send would under a
	// sizing bug) silently corrupts the stream; blocking here would
	// instead deadlock loudly, which is the failure mode we want for
	// an invariant break. The terminal error send, which has no such
	// per-stream budget argument, is endLocked's guarded select.
	rs.ch <- Token{ID: tok, Pos: len(rs.req.Prompt) + len(rs.generated) - 1}
	if len(rs.generated) >= rs.req.MaxNew {
		e.releaseLocked(rs)
		e.endLocked(rs, dispCompleted, nil)
	}
}
