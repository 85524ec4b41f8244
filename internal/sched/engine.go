package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/serving"
)

// reqState is one request's lifecycle state, owned by the engine loop
// except where noted. A handoff (Config.Handoff, Resume) moves the whole of
// it to another engine: the stream, the tokens sent and the record go on
// there.
type reqState struct {
	req       Request
	ctx       context.Context
	ch        chan Token
	generated []int
	// prompt is the token sequence this admission must prefill: the
	// request prompt, re-extended with already-emitted tokens after a
	// preemption (recompute). prefilled counts how many of them are in the
	// cache; the loop advances it chunk by chunk, and sess stays nil until
	// the whole prompt is in (a mid-prefill request occupies a batch slot
	// and its promised pages but contributes no decode lane yet).
	prompt    []int
	prefilled int
	// replay counts trailing prompt tokens (decode-produced before a
	// preemption or handoff: the generated tokens) that must re-advance
	// through decode steps instead of chunked prefill — only under sparse
	// attention, where the two are not interchangeable: sparse decode alters
	// the residual stream, so dense prefill would not rebuild those tokens'
	// K/V the way the run that produced them computed it. Replay steps emit
	// nothing but the last, whose logits decide the first new token;
	// prefilled advances with them so it always counts prompt tokens in the
	// cache.
	replay int
	// sess is non-nil only while running with prefill complete; cache is
	// non-nil for the whole running span, including mid-prefill, and
	// releaseLocked sets it nil.
	sess  *core.StepSession
	cache *kvcache.PagedKV
	// start is the first admission; firstTok the first emission. -1 until
	// they happen (preemption and handoffs do not reset them).
	start    float64
	firstTok float64
	// preempts counts restarts: each preemption and each failover hop (an
	// offer from a failed engine); failovers the hops alone.
	preempts  int
	failovers int
	// load is this request's contribution to Engine.runningLoad while
	// running.
	load float64
	// stopWatch cancels the ctx watcher that wakes the owning engine's loop
	// on cancellation; endLocked calls it so ended requests do not
	// accumulate watchers, and Resume swaps it for the new owner's.
	stopWatch func() bool
	// nodes is the request's path in the prefix cache, root first: node i
	// holds the very storage of page i of cache, for every i < len(nodes) —
	// pages matched at admission, then pages this request sealed and cached
	// itself. The request pins them all until it is released. sealable caps
	// len(nodes): a sparse engine may cache only pages wholly inside the
	// dense-prefilled span, and a request stops caching at the first page
	// another request cached before it.
	nodes    []*pageNode
	sealable int
}

// tokenAt returns the token at sequence position p, for any position whose
// K/V the request's cache holds: the prompt, then the tokens it generated.
func (rs *reqState) tokenAt(p int) int {
	if p < len(rs.req.Prompt) {
		return rs.req.Prompt[p]
	}
	return rs.generated[p-len(rs.req.Prompt)]
}

// dense returns the end of the span admission prefills in chunks: the
// prompt short of its replay tail.
func (rs *reqState) dense() int { return len(rs.prompt) - rs.replay }

func (rs *reqState) remaining() int {
	pred := rs.req.Predicted
	if pred <= 0 {
		pred = rs.req.MaxNew
	}
	if r := pred - len(rs.generated); r > 0 {
		return r
	}
	return 1 // past its prediction: nearly done, highest priority under SJF
}

// Engine is a continuous-batching scheduler over one model replica.
type Engine struct {
	m     *model.Model
	pool  *core.WorkspacePool
	cfg   Config
	start time.Time
	// sparse mirrors m.SparseTopK() > 0 at construction: every request
	// cache is built with key summaries enabled, and preempted or handed-off
	// requests replay their decode-produced tokens instead of dense-
	// prefilling them.
	sparse bool
	// kv is the page pool every request cache draws from and gives back to:
	// a request's private pages when it is released, a cached page when the
	// tree evicts it. Its budget is cfg.KVPages scaled by
	// kvcache.ScaledPageBudget (the same bytes hold more quantized pages).
	// Only the loop touches its counts (New, before the loop starts).
	kv *kvcache.PagePool

	// tree is the prefix cache. Its pages and the running requests' are the
	// pool's one ledger:
	//
	//	charged = pages out + pages promised   (kv.Charged, within the budget)
	//	used    = charged - unpinned cached    (what routers and PeakPages see)
	//
	// and the difference, the unpinned cached pages, is evicted before any
	// admission waits or any running request is preempted. prewarmPages is
	// the permanently pinned share (Config.SharedPrefix), fixed by New.
	tree         *prefixTree
	prewarmPages int

	// loop-private state (touched only by the run goroutine).
	running []*reqState
	// runBuf is scratch for one page's token run.
	runBuf []int
	// loopSteps counts scheduling iterations for Config.StepHook — loop-
	// private so the hook fires without taking mu.
	loopSteps int
	// stepSessions/stepReqs/stepToks and the chunk-packing scratch
	// (chunks/chunkReqs/chunkNexts, index-aligned) are reused across
	// iterations so batch formation and the fused mixed step allocate
	// nothing in steady state.
	stepSessions []*core.StepSession
	stepReqs     []*reqState
	stepToks     []int
	chunks       []core.PrefillChunk
	chunkReqs    []*reqState
	chunkNexts   []int
	// plan is projectedPeak's scratch: a lifetime per running request and
	// one for the candidate, at most MaxBatch.
	plan []lifetime
	// offered is the request the Handoff hook holds while it runs, so the
	// recover boundary can take it back if the hook panics.
	offered *Handle

	mu       sync.Mutex
	queue    []*reqState
	outcomes []serving.Outcome
	stats    Stats
	pending  int // queued + running, for Drain
	// runningLoad mirrors the running set's admitted token load
	// (prompt + predicted remaining) for View.BacklogTokens; each reqState
	// records its own contribution in load so removal subtracts exactly
	// what admission added.
	runningLoad float64
	// viewRunning/viewUsedPages/viewPrefill/viewStep mirror loop-private
	// state for View(), refreshed via syncViewLocked after every scheduling
	// action that changes them.
	viewRunning   int
	viewUsedPages int
	viewPrefill   int
	viewStep      float64
	viewPagesOut  int
	waiters       []chan struct{}
	closed        bool
	// aborted records that Close threw away pending requests: drains
	// released by that path report ErrClosed, not success.
	aborted bool
	// failure, once non-nil, marks the engine failed: the step loop
	// panicked, the recover boundary gave up every request it held (fail),
	// and all later Submits, Resumes and Drains report this error. A failed
	// engine never un-fails; the fleet layer quarantines it and routes
	// around it.
	failure error

	wake chan struct{}
	done chan struct{}
}

// prefixCacheBytes bounds the pages the prefix cache retains beyond what live
// requests reference when KVPages leaves the engine unbounded: 64 fp32 pages
// at small-llama's shape with 16-token pages.
const prefixCacheBytes = 4 << 20

// New starts an engine over the model. The model's weights are shared and
// immutable; multiple engines may run on one model. A SharedPrefix is
// prefilled here, before the engine accepts traffic.
func New(m *model.Model, cfg Config) (*Engine, error) {
	e, err := newEngine(m, cfg)
	if err != nil {
		return nil, err
	}
	go e.loop()
	return e, nil
}

// newEngine builds an engine without starting its loop, so a test can drive
// the scheduling steps by hand.
func newEngine(m *model.Model, cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	shape := m.CacheShape()
	sparse := m.SparseTopK() > 0
	budget := kvcache.ScaledPageBudget(cfg.KVPages, shape, cfg.PageTokens, cfg.KVQuantBits)
	e := &Engine{
		m:      m,
		pool:   core.NewWorkspacePool(m),
		cfg:    cfg,
		start:  start,
		sparse: sparse,
		kv:     kvcache.NewPagePool(shape, cfg.PageTokens, budget, cfg.KVQuantBits, sparse),
		plan:   make([]lifetime, 0, cfg.MaxBatch),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	idleCap := math.MaxInt // a page budget is its own bound
	if budget == 0 {
		fp32Pages := prefixCacheBytes * 8 / (kvcache.PageBitsFP32(shape, cfg.PageTokens) * int64(shape.Layers))
		idleCap = kvcache.ScaledPageBudget(int(fp32Pages), shape, cfg.PageTokens, cfg.KVQuantBits)
	}
	e.tree = newPrefixTree(e.kv, cfg.PageTokens, idleCap)
	if len(cfg.SharedPrefix) > 0 {
		if need := kvcache.PagesFor(len(cfg.SharedPrefix), cfg.PageTokens); budget > 0 && need >= budget {
			return nil, fmt.Errorf("%w: shared prefix needs %d pages, budget %d leaves no room for requests",
				kvcache.ErrOutOfPages, need, budget)
		}
		// Construction-time prefill has no decode traffic to interleave
		// with, but the chunk plane's batched GEMMs still finish a long
		// prefix several times faster than a token at a time —
		// and warm the batch workspace the loop will reuse.
		cache := e.kv.NewCache()
		e.m.PrefillChunkInto(e.pool.Batch(), cfg.SharedPrefix, cfg.PrefillChunk, cache)
		// Every page goes in pinned for good, the partial last one too: the
		// cache is released here, so nothing will ever append to it.
		var parent *pageNode
		for i := 0; i < cache.Pages(); i++ {
			run := cfg.SharedPrefix[i*cfg.PageTokens : min(len(cfg.SharedPrefix), (i+1)*cfg.PageTokens)]
			parent = e.tree.insert(parent, run, cache, i)
			parent.permanent = true
		}
		cache.Release(cache.Pages())
		e.prewarmPages = e.tree.pinned
		e.viewPagesOut = e.kv.Out()
		e.viewUsedPages = e.prewarmPages
		e.stats.PeakPages = e.prewarmPages
	}
	return e, nil
}

// matchLimit returns how many leading tokens of an n-token prompt a cached
// prefix may stand in for. The last token is always left to prefill, because
// its logits (not cached) decide the first output. Under sparse attention the
// match also stops short of the replay tail: those tokens' K/V came out of
// sparse decode steps and must be rebuilt by them, while the cache holds only
// what dense prefill wrote.
func matchLimit(n, replay int) int { return min(n-1, n-replay) }

// chargedPages is the pool's count of pages out and promised; usedPages leaves
// out the evictable cached pages. See Engine.tree.
func (e *Engine) chargedPages() int { return e.kv.Charged() }
func (e *Engine) usedPages() int    { return e.chargedPages() - (e.tree.pages - e.tree.pinned) }

// LifetimePages returns the pages req needs to run to completion alone on
// this engine's coldest cache: its prompt and all but its last token (sent,
// never fed), less the pre-warmed pages its prompt starts with. Submit,
// Resume and the fleet's migration all admit by it; it is the same for a
// request however many of its tokens it has sent.
func (e *Engine) LifetimePages(req Request) int {
	need := kvcache.PagesFor(len(req.Prompt)+req.MaxNew-1, e.cfg.PageTokens)
	if e.prewarmPages > 0 {
		e.mu.Lock()
		warm, _, _ := e.tree.match(req.Prompt, matchLimit(len(req.Prompt), 0), true, nil)
		e.mu.Unlock()
		need -= len(warm)
	}
	return need
}

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Submit enqueues a request and returns its token stream. The channel is
// buffered to the request's full token budget, so the engine never blocks
// on a slow consumer, and closes when the request completes, its ctx is
// cancelled, or the engine shuts down. Each token is sent in the scheduling
// iteration that decided it, and the loop yields the processor after every
// iteration, so a reader sharing it receives the token before the next
// iteration starts. Submit fails fast with kvcache.ErrOutOfPages when the
// request could never fit the page budget even running alone
// (LifetimePages) — the admission invariant that makes preemption
// livelock-free (any admitted request can always run to completion by
// itself).
func (e *Engine) Submit(ctx context.Context, req Request) (<-chan Token, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("sched: empty prompt")
	}
	if req.MaxNew <= 0 {
		req.MaxNew = e.cfg.MaxNew
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Arrival < 0 {
		// Stamp before enqueueing: time spent queued behind admission —
		// batch slots, page budget, the loop's own iterations — is
		// queueing delay the TTFT must include, not hide.
		req.Arrival = e.Now()
	}
	// The channel is one slot larger than the token budget so a terminal
	// error token (shed, engine failure) always fits without blocking; the
	// token record holds the budget, so emitting never grows it.
	rs := &reqState{
		req:       req,
		ctx:       ctx,
		ch:        make(chan Token, req.MaxNew+1),
		generated: make([]int, 0, req.MaxNew),
		start:     -1,
		firstTok:  -1,
	}
	if err := e.enqueue(rs); err != nil {
		return nil, err
	}
	return rs.ch, nil
}

// Resume takes over the request another engine's Handoff hook is offering.
// It queues through the checks Submit runs — a closed or failed engine,
// MaxQueue, SubmitHook and LifetimePages — and is then admitted like a local
// preemption victim: its prompt and the tokens it already sent are
// recomputed (under sparse attention the sent ones re-advance through decode
// steps) and its stream goes on where it stopped. Call it from inside the hook
// that was offered h, at most once successfully, on an engine sharing the
// offering engine's Epoch. On error the offering engine keeps the request.
func (e *Engine) Resume(h *Handle) error {
	if err := e.enqueue(h.rs); err != nil {
		return err
	}
	h.resumed = true
	return nil
}

// enqueue puts rs on the queue, new from Submit or taken over by Resume,
// once the page budget, SubmitHook and the engine's state admit it.
func (e *Engine) enqueue(rs *reqState) error {
	if b := e.kv.Budget(); b > 0 {
		if need, budget := e.LifetimePages(rs.req), b-e.prewarmPages; need > budget {
			return fmt.Errorf("%w: request needs %d pages, budget %d", kvcache.ErrOutOfPages, need, budget)
		}
	}
	if hook := e.cfg.SubmitHook; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	if e.failure != nil {
		e.mu.Unlock()
		return e.failure
	}
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if queued := len(e.queue); e.cfg.MaxQueue > 0 && queued >= e.cfg.MaxQueue {
		e.mu.Unlock()
		return fmt.Errorf("%w: %d requests queued (bound %d)", ErrOverloaded, queued, e.cfg.MaxQueue)
	}
	// Wake the loop when the request's ctx is cancelled, so a queued
	// request's stream closes promptly even while admission is blocked.
	// Registered under mu: endLocked (also under mu) must observe the stop
	// function, or the watcher would leak. A resumed request's watcher
	// woke the engine it came from.
	if rs.stopWatch != nil {
		rs.stopWatch()
	}
	rs.stopWatch = context.AfterFunc(rs.ctx, e.kick)
	e.queue = append(e.queue, rs)
	e.pending++
	e.mu.Unlock()
	e.kick()
	return nil
}

// kick wakes the loop without blocking.
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// Drain blocks until every request submitted so far has retired or been
// handed to another engine, or ctx is cancelled. Concurrent submits extend
// the drain. A drain released because Close aborted in-flight requests
// reports ErrClosed — nil strictly means everything submitted before the
// call ran to retirement. A failed engine's drain returns the failure once
// every request it held has been resumed elsewhere or ended.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.pending == 0 {
		err := e.failure
		e.mu.Unlock()
		return err
	}
	w := make(chan struct{})
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()
	select {
	case <-w:
		e.mu.Lock()
		aborted, failure := e.aborted, e.failure
		e.mu.Unlock()
		if failure != nil {
			return failure
		}
		if aborted {
			return ErrClosed
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Now returns seconds since the engine epoch — the clock Request.Arrival
// and Request.Deadline are measured on. Callers use it to turn a relative
// TTFT budget into the absolute deadline Submit expects.
func (e *Engine) Now() float64 { return time.Since(e.start).Seconds() }

// Failed reports the engine's terminal failure (wrapping ErrEngineFailed),
// or nil while the engine is healthy. The fleet layer reads it to
// quarantine dead replicas and to tell a failed engine's handoffs from
// preemption victims.
func (e *Engine) Failed() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failure
}

// Close shuts the engine down: queued and running requests have their
// streams closed without completing. Close is idempotent and returns after
// the loop goroutine exits.
func (e *Engine) Close() {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	if !already {
		e.kick()
	}
	<-e.done
}

// Outcomes returns the per-request records of every retired request so
// far, sorted by request ID — the same vocabulary the simulator emits.
func (e *Engine) Outcomes() []serving.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := append([]serving.Outcome(nil), e.outcomes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Req.ID < out[j].Req.ID })
	return out
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.PrefixCachePages, st.PrefixEvictions = e.tree.pages, e.tree.evictions
	st.PoolPagesOut = e.viewPagesOut
	return st
}

// View returns a point-in-time snapshot of the engine's router-visible
// state. Safe for concurrent use; loop-mirrored fields are at most one
// scheduling iteration stale.
func (e *Engine) View() View {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := View{
		Queued:        len(e.queue),
		Running:       e.viewRunning,
		BacklogTokens: e.runningLoad,
		UsedPages:     e.viewUsedPages,
		PageBudget:    e.kv.Budget(),
		PageTokens:    e.cfg.PageTokens,
		PrefillTokens: e.viewPrefill,
		StepSeconds:   e.viewStep,
	}
	for _, rs := range e.queue {
		v.BacklogTokens += float64(len(rs.req.Prompt) + rs.remaining())
	}
	return v
}

// syncViewLocked drops every released request (a nil cache: retired,
// cancelled, preempted or failed over) from the running set — the one place a
// request leaves it — and refreshes the View mirrors from loop-private state.
// The caller holds mu; the running set is at most MaxBatch entries, so the
// walk is cheap enough to run after every scheduling action.
func (e *Engine) syncViewLocked() {
	e.running = slices.DeleteFunc(e.running, func(rs *reqState) bool { return rs.cache == nil })
	pf := 0
	for _, rs := range e.running {
		pf += len(rs.prompt) - rs.prefilled
	}
	e.viewPrefill = pf
	e.viewRunning = len(e.running)
	e.viewUsedPages = e.usedPages()
	e.viewPagesOut = e.kv.Out()
}

// loop is the scheduler: admit, form the iteration batch, preempt under
// page pressure, step every running session one token, retire finishers,
// yield the processor.
//
// The loop runs behind a recover boundary — the panic-isolation half of
// the fault-tolerance story. A panic anywhere in the iteration (the fused
// compute plane, batch formation, the Handoff hook, an injected fault) is
// caught and the engine marked failed instead of the panic unwinding into
// the process; every request it held is offered to the Handoff hook, which
// the fleet layer uses to resume it on a healthy replica by bit-identical
// recompute, and the rest end on an error token wrapping ErrEngineFailed
// (fail). The boundary covers the compute plane and the hooks, which run
// outside the engine mutex; a panic raised while mu is held (plain counter
// bookkeeping) is outside the failure model — recovery must never run
// against a lock whose critical section was abandoned halfway.
func (e *Engine) loop() {
	defer close(e.done)
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("%w: panic in scheduling iteration %d: %v", ErrEngineFailed, e.loopSteps, r))
		}
	}()
	for {
		e.mu.Lock()
		if e.closed {
			e.abortLocked()
			e.mu.Unlock()
			return
		}
		next := e.reapQueueLocked()
		e.admitLocked()
		if len(e.running) == 0 {
			e.mu.Unlock()
			// A queued request carries a TTFT deadline: sleep at most until
			// it expires so shedding is prompt even while nothing is running
			// (admission blocked on pages or batch slots).
			var expiry <-chan time.Time // nil: nothing to wait for but a kick
			if next > 0 {
				expiry = time.After(time.Duration((next - e.Now()) * float64(time.Second)))
			}
			select {
			case <-e.wake:
			case <-expiry:
			}
			continue
		}
		e.mu.Unlock()

		e.reapCancelled()
		e.preemptForStep()
		if len(e.running) == 0 {
			continue
		}
		e.stepOnce()
		// Hand the P over between iterations. While anything is running the
		// loop never blocks, so on a processor it shares the readers of the
		// tokens just sent and the callers of Submit would otherwise wait for
		// the runtime's 10 ms forced preemption; with this they run at step
		// granularity, and a fleet with more loops than Ps rotates per step.
		// With nothing else runnable it is one trip through the scheduler.
		// What runs next runs on this goroutine's time slice; the pass
		// yields inside too (model.ForwardMixedInto), so that slice is at
		// most one group of GEMMs old and not a step's worth.
		runtime.Gosched()
	}
}
