package sched

import (
	"fmt"
	"math"

	"rethinkkv/internal/kvcache"
)

// reapQueueLocked ends the queued requests whose context is done or whose
// TTFT deadline has passed before any engine admitted them, and returns the
// earliest such deadline still queued (0 when none): the loop runs it before
// every admission pass, so these streams close even when admission is blocked
// on batch slots or pages — a blocked queue is exactly when deadlines blow —
// and an idle loop sleeps no later than the next one. The caller holds mu.
func (e *Engine) reapQueueLocked() (next float64) {
	now := e.Now()
	kept := e.queue[:0]
	for _, rs := range e.queue {
		dl := rs.req.Deadline
		if rs.start >= 0 {
			dl = 0 // started: preempted or handed off, never shed
		}
		switch {
		case rs.ctx.Err() != nil:
			e.endLocked(rs, dispCancelled, nil)
		case dl > 0 && now > dl:
			// Shed: the TTFT deadline passed before prefill could start, so
			// pages spent on this request would produce only SLO-blown
			// tokens.
			e.endLocked(rs, dispShed, fmt.Errorf("%w: queued %.0fms past arrival (deadline %.0fms)",
				ErrDeadlineExceeded, 1e3*(now-rs.req.Arrival), 1e3*(dl-rs.req.Arrival)))
		default:
			kept = append(kept, rs)
			if dl > 0 && (next == 0 || dl < next) {
				next = dl
			}
		}
	}
	e.queue = kept
	return next
}

// before reports whether a ranks ahead of b under the policy: FCFS orders by
// (Arrival, ID), SJF by (predicted remaining tokens, Arrival). Admission takes
// the first request in this order and preemption the last; on a full tie both
// keep the lower index.
func (e *Engine) before(a, b *reqState) bool {
	if e.cfg.Policy == PolicySJF {
		if ra, rb := a.remaining(), b.remaining(); ra != rb {
			return ra < rb
		}
		return a.req.Arrival < b.req.Arrival
	}
	if a.req.Arrival != b.req.Arrival {
		return a.req.Arrival < b.req.Arrival
	}
	return a.req.ID < b.req.ID
}

// admitLocked moves queued requests into the running set, policy-ordered,
// while batch slots are free and the page budget holds the request to its
// retirement (projectedPeak). Admission only
// allocates: it looks the prompt up in the prefix cache, builds the request's
// cache from the longest match (whole pages by reference, the rest of the
// match copied into the private tail page) and has the pool promise the pages
// the remainder needs, evicting unpinned cached pages to make room. No forward
// pass runs under the lock — what the cache did not cover prefills chunk by
// chunk inside the iteration loop, interleaved with running decodes
// (stepOnce).
func (e *Engine) admitLocked() {
	for len(e.running) < e.cfg.MaxBatch && len(e.queue) > 0 {
		i := 0
		for j := 1; j < len(e.queue); j++ {
			if e.before(e.queue[j], e.queue[i]) {
				i = j
			}
		}
		rs := e.queue[i]
		rs.prompt = rs.req.Prompt
		if len(rs.generated) > 0 { // recompute after preemption
			rs.prompt = make([]int, 0, len(rs.req.Prompt)+len(rs.generated))
			rs.prompt = append(rs.prompt, rs.req.Prompt...)
			rs.prompt = append(rs.prompt, rs.generated...)
		}
		// Decode-produced prompt tokens — everything the request sent before
		// a preemption or handoff — re-advance through sparse decode steps,
		// not dense prefill (see reqState.replay).
		rs.replay = 0
		if e.sparse {
			rs.replay = len(rs.generated)
		}
		pt := e.cfg.PageTokens
		path, tail, extra := e.tree.match(rs.prompt, matchLimit(len(rs.prompt), rs.replay), false, rs.nodes[:0])
		// Pinned before anything is evicted; from here the matched pages
		// count as used, so the checks below ask whether the request fits
		// once every unpinned page is gone.
		e.tree.pin(path)
		matched := len(path)*pt + extra
		rs.prefilled = matched
		// The promise covers the prompt and, for a request that will decode,
		// the token its first decode step appends: were that step to open a
		// page unpromised, admission could thrash (admit, prefill, evict on
		// the very next step, repeat). A request with one token left retires
		// on the pass that decides it and runs no decode step.
		promised := len(rs.prompt)
		if len(rs.generated)+1 < rs.req.MaxNew {
			promised++
		}
		need := kvcache.PagesFor(promised, pt) - len(path)
		if b := e.kv.Budget(); b > 0 {
			// The head request waits, keeping order, unless its pages fit now
			// and the running set's growth to retirement leaves room for its
			// own: admitting on the first test alone fills the budget with
			// requests whose decode growth must then preempt one of them.
			used := e.usedPages()
			now := used+need <= b
			if !now || e.projectedPeak(used, e.lifetimeOf(rs, path, need)) > b {
				if now {
					e.stats.AdmitDeferred++
				}
				e.tree.unpin(path)
				break
			}
		}
		e.queue = append(e.queue[:i], e.queue[i+1:]...)

		first := rs.start < 0
		if first {
			rs.start = e.Now()
		}
		cache := e.kv.NewCache()
		for _, n := range path {
			cache.AdoptPage(n.page)
		}
		if matched > len(path)*pt {
			// The match ends inside a cached page: take the page by
			// reference, then clone with its first extra tokens deep-copied
			// into what becomes this request's private tail page. Every page
			// the adopting cache held is the tree's.
			cache.AdoptPage(tail.page)
			clone := cache.ClonePrefixN(matched)
			cache.Release(cache.Pages())
			cache = clone
		}
		// Only now, with the match copied out of its tail page, may eviction
		// take that page: the tail node is not on the pinned path. Until the
		// promise fits an unpinned page exists, since used+need fits.
		err := cache.Reserve(promised - matched)
		for err != nil && e.tree.evict() {
			err = cache.Reserve(promised - matched)
		}
		if err != nil {
			// Cannot happen for a validated request; retire defensively.
			rs.cache, rs.nodes = cache, path
			e.releaseLocked(rs)
			e.endLocked(rs, dispCancelled, nil)
			continue
		}
		// Bit-identical to a cold prefill, minus the recompute.
		switch {
		case matched == 0:
		case first:
			e.stats.PrefixHits++
			e.stats.PrefixTokensSaved += matched
		default:
			e.stats.RecomputeTokensSaved += matched
		}
		rs.cache = cache
		rs.nodes, rs.sealable = path, math.MaxInt
		if e.sparse {
			rs.sealable = rs.dense() / pt
		}
		rs.load = float64(len(rs.req.Prompt) + rs.remaining())
		e.runningLoad += rs.load
		e.running = append(e.running, rs)
		e.stats.Admitted++
		if len(e.running) > e.stats.PeakRunning {
			e.stats.PeakRunning = len(e.running)
		}
		if used := e.usedPages(); used > e.stats.PeakPages {
			e.stats.PeakPages = used
		}
	}
	e.syncViewLocked()
}

// lifetime is one request's page demand from now until it retires, over the
// loop's coming iterations t = 1, 2, ...: the cached pages no one else pins
// (own) plus its private charge — pages out and promised beyond its cached
// path. The charge stays put through the rest of its dense prefill, at least
// start iterations, then grows with the one token each decode or replay step
// appends, from `from` tokens to from+grow: the prompt and every output token
// but the last, which is never fed. The request's length is known, so the
// iteration it retires on is too.
type lifetime struct {
	own, cached, charge int
	start, from, grow   int
	// hold keeps a mid-prefill request at its peak past start+grow. Prefill
	// takes longer than start iterations when chunks share the token budget,
	// and growth that starts late ends late: held, the projection is an upper
	// bound on what the request charges at every iteration, however slowly
	// it prefills.
	hold bool
}

// retires returns the iteration whose pass decides the request's last token.
func (l lifetime) retires() int { return l.start + l.grow }

// demand returns the pages the request charges at iteration t, the page its
// append in that iteration opens included; 0 once it has retired.
func (l lifetime) demand(t, pageTokens int) int {
	if t > l.retires() && !l.hold {
		return 0
	}
	k := min(max(t-l.start, 0), l.grow)
	return l.own + max(l.charge, kvcache.PagesFor(l.from+k, pageTokens)-l.cached)
}

// lifetimeOf projects rs's lifetime given its cached path and its private
// charge, from its admission's prompt and progress. Its length is
// Request.Predicted, or MaxNew (the remainder SJF orders by), capped at
// MaxNew: a request that outlives a short prediction is what preemption is
// left for.
func (e *Engine) lifetimeOf(rs *reqState, path []*pageNode, charge int) lifetime {
	l := lifetime{cached: len(path), charge: charge}
	for _, n := range path {
		if n.refs == 1 { // pinned by rs alone: a pre-warmed page holds a ref of its own
			l.own++
		}
	}
	last := len(rs.req.Prompt) + min(len(rs.generated)+rs.remaining(), rs.req.MaxNew) - 1
	if rs.sess != nil {
		l.from = rs.cache.TotalAppended()
	} else {
		// Growth starts the iteration after the final chunk; with the whole
		// dense span cached, the session forms in iteration 1 and first
		// appends in iteration 2.
		l.from, l.hold = rs.dense(), true
		l.start = max(1, (rs.dense()-rs.prefilled+e.cfg.PrefillChunk-1)/e.cfg.PrefillChunk)
	}
	l.grow = max(last-l.from, 0)
	return l
}

// projectedPeak returns the most pages the running set and cand charge at
// once at any coming iteration, if cand is admitted now and nothing after it:
// used, less what those requests charge now, is a base that stays charged —
// pages several requests pin and the pre-warmed prefix. Every other demand
// only grows until its request retires, so the sum peaks on one of the
// len(running)+1 retirement iterations: O(R²) demand evaluations in the
// scratch New sized. The loop steps every decode lane once an iteration, so
// a running set whose lengths are exact stays within this peak and nothing
// is preempted.
func (e *Engine) projectedPeak(used int, cand lifetime) int {
	plan, base := e.plan[:0], used-cand.own
	for _, rs := range e.running {
		charge := rs.cache.Pages() - len(rs.nodes) + rs.cache.Promised()/rs.cache.Shape().Layers
		l := e.lifetimeOf(rs, rs.nodes, charge)
		base -= l.own + l.charge
		plan = append(plan, l)
	}
	plan = append(plan, cand)
	peak := 0
	for _, at := range plan {
		sum := base
		for _, l := range plan {
			sum += l.demand(at.retires(), e.cfg.PageTokens)
		}
		peak = max(peak, sum)
	}
	return peak
}

// sealLocked moves the pages rs has filled since it last looked into the
// prefix cache: each becomes a tree node holding the page by reference,
// pinned by rs. The caller holds mu.
func (e *Engine) sealLocked(rs *reqState) {
	pt := e.cfg.PageTokens
	for i := len(rs.nodes); i < rs.sealable && (i+1)*pt <= rs.cache.TotalAppended(); i++ {
		e.runBuf = e.runBuf[:0]
		for p := i * pt; p < (i+1)*pt; p++ {
			e.runBuf = append(e.runBuf, rs.tokenAt(p))
		}
		var parent *pageNode
		if i > 0 {
			parent = rs.nodes[i-1]
		}
		n := e.tree.insert(parent, e.runBuf, rs.cache, i)
		if n == nil {
			// A request that ran alongside cached the same run first. This
			// copy stays private, and so does everything behind it: the
			// path below belongs to pages rs does not hold.
			rs.sealable = i
			return
		}
		rs.nodes = append(rs.nodes, n)
	}
}

// releaseLocked returns everything a running request holds to the ledger:
// its cache goes back to the page pool with its promise and private pages —
// every page from index len(rs.nodes) on; the ones before are the tree's —
// and its path is unpinned: those pages stay cached, evictable, so a
// preempted request re-admitted soon resumes from whatever prefix survived.
// Its prompt and progress go too: a restarted request prefills again from
// its next admission. The caller holds mu; the next syncViewLocked drops rs
// from the running set.
func (e *Engine) releaseLocked(rs *reqState) {
	rs.cache.Release(len(rs.nodes))
	e.tree.unpin(rs.nodes)
	clear(rs.nodes)
	rs.nodes = rs.nodes[:0]
	rs.sess, rs.cache = nil, nil
	rs.prompt, rs.prefilled = nil, 0
	e.runningLoad -= rs.load
	rs.load = 0
}
