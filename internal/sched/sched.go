// Package sched is the continuous-batching serving engine: the control
// plane that runs the real tiny-model decode loop (internal/core,
// internal/model) over the paged KV data plane (kvcache.PagedKV) under a
// global page budget.
//
// Where internal/serving *simulates* a cluster against the analytical cost
// model in virtual time, this engine actually serves: requests are
// admitted from a policy-ordered queue, join and leave the running batch
// at every decode iteration (iteration-level scheduling), stream their
// tokens as they are produced, and are preempted — pages released, request
// requeued for recompute — when the page budget runs out. Every page a
// request seals is kept by reference in an engine-owned radix prefix cache
// (prefixTree) under the same page budget, so any prompt that starts like an
// earlier one — a shared system prompt, a follow-up turn, a preempted request
// coming back — prefills only what the cache no longer holds. Prompts prefill
// chunk by chunk inside the iteration loop (Sarathi/Orca-style chunked
// prefill): each iteration fuses the running decode batch with prefill
// chunks into a single weight-stationary pass, so a long arriving prompt
// delays running streams by one chunk's step time instead of a whole
// prompt's. An iteration packs chunks from *every* admitted mid-prefill
// prompt, oldest first, until decode lanes plus chunk tokens fill
// Config.TokenBudget (Sarathi-style stall-free batching) — k simultaneously
// arriving prompts then prefill concurrently instead of round-robin,
// collapsing their aggregate TTFT. Greedy decode is
// deterministic, the paged cache exact, and chunked prefill bit-identical
// to token-at-a-time regardless of packing, so a preempted, chunk-prefilled
// or budget-packed request's final token stream is bit-identical to an
// uninterrupted sequential run; the scheduling only costs time, which the
// metrics expose.
//
// Both planes speak one metrics vocabulary: the engine emits the same
// serving.Outcome records (TTFT, TBOT, E2E) the simulator does, in
// wall-clock instead of simulated seconds.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// Scheduling policies.
const (
	// PolicyFCFS admits in arrival order and preempts the newest arrival.
	PolicyFCFS = "fcfs"
	// PolicySJF admits the request with the fewest predicted remaining
	// tokens first and preempts the one with the most — shortest-job-first
	// on the length prediction the paper's router experiments use.
	PolicySJF = "sjf-predicted"
)

// Policies lists the admission policies by name.
func Policies() []string { return []string{PolicyFCFS, PolicySJF} }

// Token is one streamed decode step, mirroring the facade's token type.
type Token struct {
	ID  int // emitted vocabulary id
	Pos int // absolute sequence position (original prompt length + offset)
	// Err, when non-nil, is a terminal error: the stream is about to close
	// without completing, and this token carries why — ErrEngineFailed
	// (the engine's step loop panicked and nothing could take the request
	// over) or ErrDeadlineExceeded (the request was shed from the admission
	// queue past its TTFT deadline). ID and Pos are meaningless on an error
	// token. Streams that complete or are cancelled by their own context
	// close without one.
	Err error
}

// ErrClosed reports a Submit or Drain against a closed engine.
var ErrClosed = errors.New("sched: engine closed")

// ErrEngineFailed reports an engine whose scheduling loop panicked. The
// recover boundary marks the engine failed instead of letting the panic
// take the process down: in-flight streams terminate with an error token
// wrapping this sentinel (the fleet layer fails them over to healthy
// engines first), and every later Submit or Drain fails with it.
var ErrEngineFailed = errors.New("sched: engine failed")

// ErrOverloaded reports a Submit rejected because the bounded admission
// queue (Config.MaxQueue) is full — the fail-fast alternative to letting
// an overload grow the queue without bound.
var ErrOverloaded = errors.New("sched: admission queue full")

// ErrDeadlineExceeded reports a request shed from the admission queue
// because its TTFT deadline (Request.Deadline) passed before the engine
// could start it — spending pages on it could no longer meet its SLO.
var ErrDeadlineExceeded = errors.New("sched: TTFT deadline exceeded before admission")

// Config sizes the engine.
type Config struct {
	// MaxBatch bounds the number of concurrently decoding requests.
	MaxBatch int
	// PageTokens is the KV page size in tokens.
	PageTokens int
	// KVPages is the global per-layer page budget shared by all live
	// sequences; 0 means unbounded (no preemption ever triggers).
	KVPages int
	// MaxNew is the default per-request decode cap.
	MaxNew int
	// PrefillChunk is the prompt-token budget one scheduling iteration
	// spends on prefill: instead of prefilling a whole admitted prompt
	// under the engine lock (stalling every running decode stream for the
	// prompt's full forward cost), the loop advances the oldest admitted
	// prompt by at most PrefillChunk positions per iteration, fused into
	// the same weight pass as the running decode batch
	// (core.StepMixedStatsInto). Smaller chunks bound the inter-token gap
	// running streams see while a long prompt arrives; larger chunks
	// finish the prompt's TTFT sooner. 0 means the default (32).
	PrefillChunk int
	// TokenBudget is the per-iteration token budget for Sarathi-style
	// stall-free batching: one fused pass carries the decode lanes plus
	// prefill chunks packed greedily from *all* admitted
	// mid-prefill prompts (oldest first, each capped by its remaining
	// dense span and by PrefillChunk) until decode lanes + Σ chunk tokens
	// reach the budget. k prompts arriving together then prefill
	// concurrently through shared weight passes instead of sequentially,
	// so their aggregate TTFT stops degrading linearly in k, while decode
	// streams still never wait more than one budgeted pass. A budget
	// smaller than the decode lane count still packs one (possibly
	// truncated) chunk, so prefill always progresses. 0 means the default,
	// MaxBatch + PrefillChunk: the oldest prompt always gets a full chunk
	// and whatever room the decode lanes leave packs the next prompt's.
	TokenBudget int
	// Policy is PolicyFCFS (default) or PolicySJF.
	Policy string
	// GPU is the id stamped on outcomes (multi-engine replay sets it).
	GPU int
	// Epoch, when non-zero, is the clock origin all engine timestamps
	// (arrivals, TTFT, finish) are measured from. Multi-engine trace
	// replay passes one shared epoch so outcomes from different engines
	// are comparable; zero means "engine construction time".
	Epoch time.Time
	// Migrate, when non-nil, is consulted for every preemption victim
	// before it is requeued locally. Returning true hands the victim off to
	// the caller (the fleet layer): the engine retires it immediately —
	// pages already released, token channel closed, no outcome recorded,
	// Stats.MigratedOut incremented — and the callee is responsible for
	// re-admitting the serialized request (its prompt plus the tokens it
	// already emitted, all of which were sent on the channel before the
	// hook ran) on another engine. The hook is called from the scheduling
	// loop with no engine lock held, so it may inspect this or other
	// engines' View/Backlog, but it must not block on this engine's own
	// progress (e.g. by draining it).
	Migrate func(gpu int, req Request, generated int) bool
	// KVQuantBits selects quantized KV pages for every request cache: 0
	// (default) stores full-precision fp32 pages, 8 or 4 stores
	// uniform-quantized codes with float16 scale pairs. KVPages stays
	// denominated in fp32-page bytes — the engine converts it once into the
	// larger number of quantized pages the same byte budget holds
	// (kvcache.ScaledPageBudget), which is where quantization buys
	// capacity: more resident sequences before preemption, identical byte
	// footprint. Decode streams codes through the fused dequantize-on-read
	// kernels, so outputs are deterministic (recompute-exact) though not
	// bit-identical to fp32 serving.
	KVQuantBits int
	// MaxQueue bounds the admission queue: a Submit finding MaxQueue
	// requests already waiting fails fast with ErrOverloaded instead of
	// growing the backlog without bound. 0 means unbounded.
	MaxQueue int
	// AdmissionTimeout, in seconds, is the default TTFT deadline stamped on
	// requests that carry none of their own: a request still queued
	// AdmissionTimeout after its arrival is shed (stream terminates with an
	// ErrDeadlineExceeded error token) instead of burning pages on work
	// whose SLO is already blown. 0 disables the default; per-request
	// Request.Deadline always wins.
	AdmissionTimeout float64
	// StepHook, when non-nil, runs at the top of every scheduling
	// iteration with the 1-based iteration count, outside the engine lock.
	// It is the fault-injection seam (internal/faults): a hook that panics
	// exercises the recover boundary exactly as a real step-loop bug
	// would, and a hook that sleeps models a slow replica. The hook runs
	// on the loop goroutine — it must not call back into this engine.
	StepHook func(step int)
	// SubmitHook, when non-nil, is consulted by every Submit after
	// validation; a non-nil error fails the Submit with it. Fault
	// injection uses it for deterministic ErrOutOfPages storms — the
	// transient capacity exhaustion an overloaded replica reports.
	SubmitHook func() error
	// SharedPrefix, when non-empty, pre-warms the engine's prefix cache: it
	// is prefilled once at engine start and its pages stay cached for the
	// engine's lifetime, charged against KVPages permanently. The cache
	// itself is always on — every page any request seals is kept, by
	// reference, for as long as the page budget has room (see prefixTree) —
	// so a pre-warmed prefix differs from a learned one only in being there
	// before the first request and in never being evicted. Decode output is
	// bit-identical to a cold prefill either way; only recompute is saved.
	SharedPrefix []int
}

func (c *Config) normalize() error {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.PageTokens <= 0 {
		c.PageTokens = 16
	}
	if c.MaxNew <= 0 {
		c.MaxNew = 32
	}
	if c.PrefillChunk == 0 {
		c.PrefillChunk = 32
	}
	if c.PrefillChunk < 0 {
		return fmt.Errorf("sched: negative prefill chunk %d", c.PrefillChunk)
	}
	if c.TokenBudget < 0 {
		return fmt.Errorf("sched: negative token budget %d", c.TokenBudget)
	}
	if c.TokenBudget == 0 {
		c.TokenBudget = c.MaxBatch + c.PrefillChunk
	}
	if c.Policy == "" {
		c.Policy = PolicyFCFS
	}
	if c.Policy != PolicyFCFS && c.Policy != PolicySJF {
		return fmt.Errorf("sched: unknown policy %q", c.Policy)
	}
	if c.KVPages < 0 {
		return fmt.Errorf("sched: negative page budget %d", c.KVPages)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("sched: negative admission queue bound %d", c.MaxQueue)
	}
	if c.AdmissionTimeout < 0 {
		return fmt.Errorf("sched: negative admission timeout %g", c.AdmissionTimeout)
	}
	if c.KVQuantBits != 0 && c.KVQuantBits != 4 && c.KVQuantBits != 8 {
		return fmt.Errorf("sched: unsupported KV quant width %d (want 0, 4 or 8)", c.KVQuantBits)
	}
	return nil
}

// Request is one serving request.
type Request struct {
	ID     int
	Prompt []int
	// MaxNew caps the decoded tokens; 0 uses the engine default.
	MaxNew int
	// Predicted is the predicted response length PolicySJF orders by;
	// 0 falls back to MaxNew. Trace replay feeds the trace's reference
	// length here, mirroring the paper's predictor-driven routing.
	Predicted int
	// Arrival is seconds since engine start; negative means "stamp at
	// submit time" (the live-traffic case). Trace replay passes the
	// trace's arrival so queueing delay is measured against intent.
	Arrival float64
	// Deadline, in seconds on the engine clock (the same origin as
	// Arrival), is the request's TTFT deadline: if it is still queued —
	// prefill not started — past this instant, the engine sheds it with an
	// ErrDeadlineExceeded error token instead of spending pages on work
	// that can no longer meet its SLO. 0 means no deadline (then
	// Config.AdmissionTimeout, if set, stamps a default at Submit);
	// negative means explicitly none, suppressing the default too (the
	// fleet uses it for failover continuations that already streamed). A
	// request that already started is never shed — preemption and
	// migration may still finish it late, which the outcome records.
	Deadline float64
	// Replay counts trailing Prompt tokens that were produced by decode
	// steps on another engine (a migration handoff under sparse attention).
	// Sparse decode alters the residual stream, so dense chunked prefill
	// would not rebuild those tokens' KV the way the source engine computed
	// it (or, for the last one, was about to); instead the engine prefills
	// only Prompt[:len-Replay] densely and re-advances the tail through
	// ordinary (sparse) decode steps, emitting nothing until the step that
	// feeds the tail's last token decides the first new one — the cache an
	// uninterrupted run would hold, exactly. Ignored (zeroed) on engines
	// without sparse attention, where chunked prefill is already
	// bit-identical to decode. Must be < len(Prompt).
	Replay int
}

// Stats are engine-lifetime counters. The facade exports the type unchanged
// as rethinkkv.ServerStats, one per engine inside fleet.Stats.
type Stats struct {
	Steps       int // scheduling iterations executed (decode, prefill chunk, or both)
	Admitted    int // admissions incl. re-admissions after preemption
	Preemptions int // evict-and-requeue events
	Completed   int // requests finished to their token cap
	Cancelled   int // requests retired early by their context
	PeakRunning int // max concurrent decode streams
	// PeakPages is the most pages ever referenced at once by live requests
	// plus the pre-warmed prefix — what View.UsedPages peaked at. Pages the
	// prefix cache keeps beyond that are evictable and reported separately
	// (PrefixCacheStats).
	PeakPages int
	// PrefillChunks counts prompt chunks advanced through the fused plane,
	// one per chunk — a budget-packed iteration carrying chunks from k
	// prompts counts k. MixedSteps counts the iterations that carried at
	// least one decode lane and at least one prefill chunk in one weight
	// pass — the interleaving the chunked prefill design exists for.
	// PrefillPreempted counts the preemption victims caught mid-prefill.
	PrefillChunks    int
	MixedSteps       int
	PrefillPreempted int
	// PackedChunks counts the prefill chunks that shared their fused pass
	// with at least one other prompt's chunk. BudgetTokens totals the
	// tokens every scheduling iteration carried (decode lanes +
	// prefill chunk tokens), the utilisation numerator for the
	// per-iteration budget. A request's last token is decided and never
	// fed, so an uninterrupted request adds len(Prompt) - cached prefix +
	// MaxNew - 1.
	PackedChunks int
	BudgetTokens int
	// PrefixHits counts requests whose admission found the start of their
	// prompt in the prefix cache; PrefixTokensSaved totals the prompt tokens
	// those hits did not prefill. A re-admission after preemption is not a
	// second hit: what it finds still cached is RecomputeTokensSaved.
	PrefixHits        int
	PrefixTokensSaved int
	PrefixCacheStats
	// MigratedOut counts preemption victims handed off through the
	// Config.Migrate hook instead of being requeued locally; always 0 on an
	// engine outside a fleet.
	MigratedOut int
	// Shed counts queued requests dropped past their TTFT deadline
	// (Request.Deadline / Config.AdmissionTimeout) — deliberate load
	// shedding, distinct from Cancelled (caller gave up) and from the
	// streams an engine failure terminates.
	Shed int
	// SparsePagesSelected / SparsePagesTotal sum, over every sparse decode
	// attention the engine ran, the pages attended vs the pages resident —
	// selected/total is the fleet-visible attention-traffic ratio sparse
	// attention achieved. Both stay 0 when sparsity is off or contexts
	// never exceeded the page budget topK.
	SparsePagesSelected int64
	SparsePagesTotal    int64
}

// PrefixCacheStats reports the prefix cache's own share of the page ledger.
// It is one struct embedded by every stats type up to the public facade, so a
// counter added here needs no copying.
type PrefixCacheStats struct {
	// PrefixCachePages is the number of pages the cache holds right now:
	// the pre-warmed prefix, pages live requests share or have sealed, and
	// evictable pages no live request references.
	PrefixCachePages int
	// PrefixEvictions counts cached pages dropped, least recently released
	// first, to make room under the page budget or the retention bound.
	PrefixEvictions int
	// RecomputeTokensSaved totals the tokens (prompt and already generated)
	// that preempted requests found still cached at re-admission and so did
	// not recompute.
	RecomputeTokensSaved int
}

// View is a point-in-time snapshot of the engine's router-visible state —
// the live signals a multi-engine placement policy routes on. Loop-private
// fields (running set, page usage, prefill debt) are mirrored at the end of
// every scheduling action, so a view is at most one iteration stale.
type View struct {
	// Queued counts requests waiting for admission; Running counts the
	// running set (decoding plus mid-prefill).
	Queued  int
	Running int
	// BacklogTokens is the queued-plus-running token load (prompt +
	// predicted remaining at admission) — the same signal Backlog returns.
	BacklogTokens float64
	// UsedPages is the KV pages live requests reference plus the pre-warmed
	// prefix — the part of the budget that cannot be reclaimed. Pages the
	// prefix cache merely retains are evicted on demand and count as free.
	// PageBudget is the configured budget (0 = unbounded) and PageTokens
	// the page size.
	UsedPages  int
	PageBudget int
	PageTokens int
	// PrefillTokens counts admitted prompt tokens not yet prefilled — the
	// chunked-prefill debt queued ahead of any new arrival's own prefill.
	PrefillTokens int
	// StepSeconds is an exponential moving average of recent scheduling-
	// iteration wall time (0 until the first step) — a live per-engine
	// cost signal no analytical model supplies.
	StepSeconds float64
}

// FreePages returns the page budget not in use (evictable cached pages
// included), or -1 when unbounded.
func (v View) FreePages() int {
	if v.PageBudget == 0 {
		return -1
	}
	return v.PageBudget - v.UsedPages
}

// reqState is one request's lifecycle state, owned by the engine loop
// except where noted.
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
	// and its reserved pages but contributes no decode lane yet).
	prompt    []int
	prefilled int
	// replay counts trailing prompt tokens (decode-produced before a
	// preemption or migration) that must re-advance through decode steps
	// instead of chunked prefill — only under sparse attention, where the
	// two are not interchangeable. Replay steps emit nothing but the last,
	// whose logits decide the first new token; prefilled advances with them
	// so it always counts prompt tokens in the cache.
	replay int
	// sess is non-nil only while running with prefill complete; cache is
	// non-nil for the whole running span, including mid-prefill.
	sess  *core.StepSession
	cache *kvcache.PagedKV
	// retired marks a request stepOnce retired this iteration, so the
	// running set can be rebuilt outside the emission loop.
	retired bool
	// start is the first prefill start; firstTok the first emission. -1
	// until they happen (preemption does not reset them).
	start    float64
	firstTok float64
	preempts int
	// load is this request's contribution to Engine.runningLoad while
	// running.
	load float64
	// stopWatch cancels the ctx watcher that wakes the loop on
	// cancellation; retirement calls it so completed requests do not
	// accumulate watchers.
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
	// pages is the request's private page charge against the engine
	// budget: pages reserved at admission plus pages opened by decode,
	// minus the pages on nodes. Preemption and retirement release exactly
	// this amount.
	pages int
	// reserved marks a first-decode-step page charged at admission
	// (prompt length page-aligned): admission reserves it so a freshly
	// admitted request cannot be admitted and then immediately evicted —
	// and its prefill wasted — by its own first step's page need. The
	// flag is consumed by the step that opens the page.
	reserved bool
}

// tokenAt returns the token at sequence position p, for any position whose
// K/V the request's cache holds: the prompt, then the tokens it generated.
func (rs *reqState) tokenAt(p int) int {
	if p < len(rs.req.Prompt) {
		return rs.req.Prompt[p]
	}
	return rs.generated[p-len(rs.req.Prompt)]
}

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
	// cache is built with key summaries enabled, and preempted/migrated
	// requests replay their decode-produced tokens instead of dense-
	// prefilling them.
	sparse bool
	// pageBudget is cfg.KVPages converted to the engine's page currency:
	// identical for fp32 caches, scaled up by kvcache.ScaledPageBudget when
	// KVQuantBits is set (the same bytes hold more quantized pages). All
	// admission, reservation, and preemption accounting uses this value.
	pageBudget int

	// tree is the prefix cache. Its pages and the running requests' private
	// pages are one ledger under pageBudget:
	//
	//	charged = privatePages + tree.pages   (never above pageBudget)
	//	used    = privatePages + tree.pinned  (what routers and PeakPages see)
	//
	// and the difference, the unpinned cached pages, is evicted before any
	// admission waits or any running request is preempted. prewarmPages is
	// the permanently pinned share (Config.SharedPrefix), fixed by New.
	tree         *prefixTree
	prewarmPages int

	// loop-private state (touched only by the run goroutine).
	running []*reqState
	// privatePages sums reqState.pages over the running set.
	privatePages int
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

	mu       sync.Mutex
	queue    []*reqState
	outcomes []serving.Outcome
	stats    Stats
	pending  int // queued + running, for Drain
	// runningLoad mirrors the running set's admitted token load
	// (prompt + predicted remaining) for Backlog; each reqState records
	// its own contribution in load so removal subtracts exactly what
	// admission added.
	runningLoad float64
	// viewRunning/viewUsedPages/viewPrefill/viewStep mirror loop-private
	// state for View(), refreshed via syncViewLocked after every scheduling
	// action that changes them.
	viewRunning   int
	viewUsedPages int
	viewPrefill   int
	viewStep      float64
	waiters       []chan struct{}
	closed        bool
	// aborted records that Close threw away pending requests: drains
	// released by that path report ErrClosed, not success.
	aborted bool
	// failure, once non-nil, marks the engine failed: the step loop
	// panicked, the recover boundary terminated every in-flight stream
	// with an error token wrapping ErrEngineFailed, and all later Submits
	// and Drains report this error. A failed engine never un-fails; the
	// fleet layer quarantines it and routes around it.
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
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	shape := m.CacheShape()
	e := &Engine{
		m:          m,
		pool:       core.NewWorkspacePool(m),
		cfg:        cfg,
		start:      start,
		sparse:     m.SparseTopK() > 0,
		pageBudget: kvcache.ScaledPageBudget(cfg.KVPages, shape, cfg.PageTokens, cfg.KVQuantBits),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	idleCap := math.MaxInt // a page budget is its own bound
	if e.pageBudget == 0 {
		fp32Pages := prefixCacheBytes * 8 / (kvcache.PageBitsFP32(shape, cfg.PageTokens) * int64(shape.Layers))
		idleCap = kvcache.ScaledPageBudget(int(fp32Pages), shape, cfg.PageTokens, cfg.KVQuantBits)
	}
	e.tree = newPrefixTree(cfg.PageTokens, idleCap)
	if len(cfg.SharedPrefix) > 0 {
		// Construction-time prefill has no decode traffic to interleave
		// with, but the chunk plane's batched GEMMs still finish a long
		// prefix several times faster than token-at-a-time ForwardInto —
		// and warm the pooled batch workspace the loop will reuse.
		cache := e.newCache()
		sb := e.pool.GetBatch()
		e.m.PrefillChunkInto(sb.Batch(), cfg.SharedPrefix, cfg.PrefillChunk, cache)
		e.pool.PutBatch(sb)
		// Every page goes in pinned for good, the partial last one too: the
		// cache is dropped here, so nothing will ever append to it.
		var parent *pageNode
		for i := 0; i < cache.Pages(); i++ {
			run := cfg.SharedPrefix[i*cfg.PageTokens : min(len(cfg.SharedPrefix), (i+1)*cfg.PageTokens)]
			parent = e.tree.insert(parent, run, cache.PageAt(i))
			parent.permanent = true
		}
		e.prewarmPages = e.tree.pinned
		if e.pageBudget > 0 && e.prewarmPages >= e.pageBudget {
			return nil, fmt.Errorf("%w: shared prefix needs %d pages, budget %d leaves no room for requests",
				kvcache.ErrOutOfPages, e.prewarmPages, e.pageBudget)
		}
		e.viewUsedPages = e.prewarmPages
		e.stats.PeakPages = e.prewarmPages
	}
	go e.loop()
	return e, nil
}

// newCache returns an empty request cache in the engine's page format.
func (e *Engine) newCache() *kvcache.PagedKV {
	cache := kvcache.NewPagedKVQuant(e.m.CacheShape(), e.cfg.PageTokens, e.pageBudget, e.cfg.KVQuantBits)
	if e.sparse {
		cache.EnableKeySummaries()
	}
	return cache
}

// matchLimit returns how many leading tokens of an n-token prompt a cached
// prefix may stand in for. The last token is always left to prefill, because
// its logits (not cached) decide the first output. Under sparse attention the
// match also stops short of the replay tail: those tokens' K/V came out of
// sparse decode steps and must be rebuilt by them, while the cache holds only
// what dense prefill wrote.
func matchLimit(n, replay int) int { return min(n-1, n-replay) }

// usedPages is the pages live requests reference plus the pre-warm;
// chargedPages adds the evictable cached pages. See Engine.tree.
func (e *Engine) usedPages() int    { return e.privatePages + e.tree.pinned }
func (e *Engine) chargedPages() int { return e.privatePages + e.tree.pages }

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// now returns seconds since engine start.
func (e *Engine) now() float64 { return time.Since(e.start).Seconds() }

// Submit enqueues a request and returns its token stream. The channel is
// buffered to the request's full token budget, so the engine never blocks
// on a slow consumer, and closes when the request completes, its ctx is
// cancelled, or the engine shuts down. Each token is sent in the scheduling
// iteration that decided it, and the loop yields the processor after every
// iteration, so a reader sharing it receives the token before the next
// iteration starts. Submit fails fast with kvcache.ErrOutOfPages when the
// request could never fit the page budget even running alone, caching its
// prompt and all but the last of its MaxNew tokens — the admission invariant
// that makes preemption livelock-free (any admitted request can always run
// to completion by itself).
func (e *Engine) Submit(ctx context.Context, req Request) (<-chan Token, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("sched: empty prompt")
	}
	if req.MaxNew <= 0 {
		req.MaxNew = e.cfg.MaxNew
	}
	if !e.sparse {
		// Dense chunked prefill is bit-identical to decode; nothing to
		// replay.
		req.Replay = 0
	}
	if req.Replay < 0 || req.Replay >= len(req.Prompt) {
		return nil, fmt.Errorf("sched: replay %d out of range for prompt of %d", req.Replay, len(req.Prompt))
	}
	if e.pageBudget > 0 {
		// Running alone, with the cache as cold as it can get: only pages of
		// the pre-warmed prefix are certain to be there at admission. The last
		// token is decided, sent and never fed, so it is never cached.
		need := kvcache.PagesFor(len(req.Prompt)+req.MaxNew-1, e.cfg.PageTokens)
		if e.prewarmPages > 0 {
			e.mu.Lock()
			warm, _, _ := e.tree.match(req.Prompt, matchLimit(len(req.Prompt), req.Replay), true, nil)
			e.mu.Unlock()
			need -= len(warm)
		}
		if budget := e.pageBudget - e.prewarmPages; need > budget {
			return nil, fmt.Errorf("%w: request needs %d pages, budget %d", kvcache.ErrOutOfPages, need, budget)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if hook := e.cfg.SubmitHook; hook != nil {
		if err := hook(); err != nil {
			return nil, err
		}
	}
	if req.Arrival < 0 {
		// Stamp before enqueueing: time spent queued behind admission —
		// batch slots, page budget, the loop's own iterations — is
		// queueing delay the TTFT must include, not hide.
		req.Arrival = e.now()
	}
	if req.Deadline < 0 {
		// Explicitly no deadline: continuation re-admissions that already
		// emitted tokens use this to opt out of AdmissionTimeout stamping
		// (shedding a half-delivered stream would violate the TTFT
		// contract the deadline models).
		req.Deadline = 0
	} else if req.Deadline == 0 && e.cfg.AdmissionTimeout > 0 {
		req.Deadline = req.Arrival + e.cfg.AdmissionTimeout
	}
	// The channel is one slot larger than the token budget so a terminal
	// error token (shed, engine failure) always fits without blocking.
	rs := &reqState{
		req:      req,
		ctx:      ctx,
		ch:       make(chan Token, req.MaxNew+1),
		start:    -1,
		firstTok: -1,
	}
	e.mu.Lock()
	if e.failure != nil {
		e.mu.Unlock()
		return nil, e.failure
	}
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if queued := len(e.queue); e.cfg.MaxQueue > 0 && queued >= e.cfg.MaxQueue {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requests queued (bound %d)", ErrOverloaded, queued, e.cfg.MaxQueue)
	}
	// Wake the loop when the request's ctx is cancelled, so a queued
	// request's stream closes promptly even while admission is blocked.
	// Registered under mu: retirement (also under mu) must observe the
	// stop function, or the watcher would leak.
	rs.stopWatch = context.AfterFunc(ctx, e.kick)
	e.queue = append(e.queue, rs)
	e.pending++
	e.mu.Unlock()
	e.kick()
	return rs.ch, nil
}

// kick wakes the loop without blocking.
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// Drain blocks until every request submitted so far has retired, or ctx is
// cancelled. Concurrent submits extend the drain. A drain released because
// Close aborted in-flight requests reports ErrClosed — nil strictly means
// everything submitted before the call ran to retirement.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.failure != nil {
		e.mu.Unlock()
		return e.failure
	}
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.pending == 0 {
		e.mu.Unlock()
		return nil
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
func (e *Engine) Now() float64 { return e.now() }

// Failed reports the engine's terminal failure (wrapping ErrEngineFailed),
// or nil while the engine is healthy. The fleet layer polls it to
// quarantine dead replicas and fail their requests over.
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
		PageBudget:    e.pageBudget,
		PageTokens:    e.cfg.PageTokens,
		PrefillTokens: e.viewPrefill,
		StepSeconds:   e.viewStep,
	}
	for _, rs := range e.queue {
		v.BacklogTokens += float64(len(rs.req.Prompt) + rs.remaining())
	}
	return v
}

// syncViewLocked refreshes the View mirrors from loop-private state. The
// caller holds mu; the running set is at most MaxBatch entries, so the walk
// is cheap enough to run after every scheduling action.
func (e *Engine) syncViewLocked() {
	pf := 0
	for _, rs := range e.running {
		pf += len(rs.prompt) - rs.prefilled
	}
	e.viewPrefill = pf
	e.viewRunning = len(e.running)
	e.viewUsedPages = e.usedPages()
}

// loop is the scheduler: admit, form the iteration batch, preempt under
// page pressure, step every running session one token, retire finishers,
// yield the processor.
//
// The loop runs behind a recover boundary — the panic-isolation half of
// the fault-tolerance story. A panic anywhere in the iteration (the fused
// compute plane, batch formation, an injected fault) is caught, the engine
// marked failed, and every in-flight stream terminated with an error token
// wrapping ErrEngineFailed instead of the panic unwinding into the process.
// The fleet layer observes the closure, quarantines the engine, and fails
// the requests over to healthy replicas via bit-identical replay. The
// boundary covers the compute plane, which runs outside the engine mutex;
// a panic raised while mu is held (plain counter bookkeeping) is outside
// the failure model and would still crash by design — recovery must never
// run against a lock whose critical section was abandoned halfway.
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
			e.failLocked()
			e.mu.Unlock()
			return
		}
		e.admitLocked()
		if len(e.running) == 0 {
			wait := e.nextDeadlineWaitLocked()
			e.mu.Unlock()
			if wait >= 0 {
				// A queued request carries a TTFT deadline: sleep at most
				// until it expires so shedding is prompt even while nothing
				// is running (admission blocked on pages or batch slots).
				t := time.NewTimer(wait)
				select {
				case <-e.wake:
				case <-t.C:
				}
				t.Stop()
			} else {
				<-e.wake
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

// nextDeadlineWaitLocked returns how long the idle loop may sleep before
// the earliest queued TTFT deadline expires, or -1 when no queued request
// carries one. The caller holds mu.
func (e *Engine) nextDeadlineWaitLocked() time.Duration {
	wait := time.Duration(-1)
	now := e.now()
	for _, rs := range e.queue {
		if rs.req.Deadline <= 0 {
			continue
		}
		d := time.Duration((rs.req.Deadline - now) * float64(time.Second))
		if d < 0 {
			d = 0
		}
		if wait < 0 || d < wait {
			wait = d
		}
	}
	return wait
}

// fail is the recover boundary's landing: mark the engine failed and
// terminate every queued and running stream with an error token. It runs
// on the loop goroutine after the panic unwound it, so no scheduling can
// race it; Submit and Drain observe failure under mu.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failure = err
	for _, rs := range e.queue {
		e.failStreamLocked(rs, err)
	}
	e.queue = nil
	for _, rs := range e.running {
		e.releaseLocked(rs)
		e.failStreamLocked(rs, err)
	}
	e.running = nil
	e.syncViewLocked()
	for _, w := range e.waiters {
		close(w)
	}
	e.waiters = nil
}

// failStreamLocked terminates one request's stream with an error token and
// drops it from the pending count. The caller holds mu. The channel always
// has room for the error token (it is sized MaxNew+1 and a live request
// has emitted at most MaxNew); the select guards the impossible case
// rather than deadlocking the recovery path on it.
func (e *Engine) failStreamLocked(rs *reqState, err error) {
	if rs.stopWatch != nil {
		rs.stopWatch()
	}
	select {
	case rs.ch <- Token{Err: err}:
	default:
	}
	close(rs.ch)
	e.pending--
}

// admitLocked moves queued requests into the running set, policy-ordered,
// while batch slots and prompt pages are available. Admission only
// allocates: it looks the prompt up in the prefix cache, builds the request's
// cache from the longest match (whole pages by reference, the rest of the
// match copied into the private tail page) and reserves the pages the
// remainder needs, evicting unpinned cached pages to make room. No forward
// pass runs under the lock — what the cache did not cover prefills chunk by
// chunk inside the iteration loop, interleaved with running decodes
// (stepOnce).
func (e *Engine) admitLocked() {
	// Reap cancelled and deadline-expired queued requests first: their
	// streams must close even when admission is blocked on batch slots or
	// pages — a blocked queue is exactly when deadlines blow.
	now := e.now()
	kept := e.queue[:0]
	for _, rs := range e.queue {
		if rs.ctx.Err() != nil {
			e.retireLocked(rs, dispCancelled)
			continue
		}
		if rs.req.Deadline > 0 && now > rs.req.Deadline {
			// Shed: the TTFT deadline passed before prefill could start, so
			// pages spent on this request would produce only SLO-blown
			// tokens. Terminate the stream with the typed error token. The
			// guarded send matches failStreamLocked: the buffer is sized
			// MaxNew+1 and a queued request has emitted at most MaxNew-1
			// tokens, so room is guaranteed — but a terminal send must never
			// be able to stall the engine loop under mu, so it does not rely
			// on that arithmetic.
			select {
			case rs.ch <- Token{Err: fmt.Errorf("%w: queued %.0fms past arrival (deadline %.0fms)",
				ErrDeadlineExceeded, 1e3*(now-rs.req.Arrival), 1e3*(rs.req.Deadline-rs.req.Arrival))}:
			default:
			}
			e.retireLocked(rs, dispShed)
			continue
		}
		kept = append(kept, rs)
	}
	e.queue = kept
	for len(e.running) < e.cfg.MaxBatch && len(e.queue) > 0 {
		i := e.pickLocked()
		rs := e.queue[i]
		if rs.ctx.Err() != nil {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.retireLocked(rs, dispCancelled)
			continue
		}
		prompt := rs.req.Prompt
		if len(rs.generated) > 0 { // recompute after preemption
			prompt = make([]int, 0, len(rs.req.Prompt)+len(rs.generated))
			prompt = append(prompt, rs.req.Prompt...)
			prompt = append(prompt, rs.generated...)
		}
		// Decode-produced prompt tokens (from a migration handoff plus any
		// locally emitted before this preemption) re-advance through sparse
		// decode steps, not dense prefill — see Request.Replay.
		replay := 0
		if e.sparse {
			replay = rs.req.Replay + len(rs.generated)
		}
		pt := e.cfg.PageTokens
		path, tail, extra := e.tree.match(prompt, matchLimit(len(prompt), replay), false, rs.nodes[:0])
		// Pinned before anything is evicted; from here the matched pages
		// count as used, so the check below asks whether the request fits
		// once every unpinned page is gone.
		e.tree.pin(path)
		need := kvcache.PagesFor(len(prompt), pt) - len(path)
		// The first decode step would open a page immediately; reserve it
		// now so admission cannot thrash (admit, prefill, evict on the very
		// next step, repeat). A request with one token left retires on the
		// pass that decides it and runs no decode step.
		reserved := len(prompt)%pt == 0 && len(rs.generated)+1 < rs.req.MaxNew
		if reserved {
			need++
		}
		if e.pageBudget > 0 && e.usedPages()+need > e.pageBudget {
			e.tree.unpin(path)
			break // head request waits for pages; keep order
		}
		e.queue = append(e.queue[:i], e.queue[i+1:]...)

		if rs.start < 0 {
			rs.start = e.now()
		}
		cache := e.newCache()
		for _, n := range path {
			cache.AdoptPage(n.page)
		}
		matched := len(path) * pt
		if extra > 0 {
			// The match ends inside a cached page: take the page by
			// reference, then clone with its first extra tokens deep-copied
			// into what becomes this request's private tail page.
			matched += extra
			cache.AdoptPage(tail.page)
			cache = cache.ClonePrefixN(matched)
		}
		for e.pageBudget > 0 && e.chargedPages()+need > e.pageBudget {
			e.tree.evict() // an unpinned page exists: used+need fits, charged+need does not
		}
		if err := cache.Reserve(len(prompt) - matched); err != nil {
			// Cannot happen for a validated request; retire defensively.
			e.tree.unpin(path)
			e.retireLocked(rs, dispCancelled)
			continue
		}
		// Bit-identical to a cold prefill, minus the recompute.
		switch {
		case matched == 0:
		case rs.preempts == 0:
			e.stats.PrefixHits++
			e.stats.PrefixTokensSaved += matched
		default:
			e.stats.RecomputeTokensSaved += matched
		}
		rs.sess, rs.cache = nil, cache
		rs.prompt, rs.prefilled = prompt, matched
		rs.replay = replay
		rs.nodes, rs.sealable = path, math.MaxInt
		if e.sparse {
			rs.sealable = (len(prompt) - replay) / pt
		}
		rs.pages = need
		rs.reserved = reserved
		rs.load = float64(len(rs.req.Prompt) + rs.remaining())
		e.runningLoad += rs.load
		e.privatePages += need
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

// sealLocked moves the pages rs has filled since it last looked into the
// prefix cache: each becomes a tree node holding the page by reference,
// pinned by rs, and stops counting as private. The caller holds mu.
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
		n := e.tree.insert(parent, e.runBuf, rs.cache.PageAt(i))
		if n == nil {
			// A request that ran alongside cached the same run first. This
			// copy stays private, and so does everything behind it: the
			// path below belongs to pages rs does not hold.
			rs.sealable = i
			return
		}
		rs.nodes = append(rs.nodes, n)
		rs.pages--
		e.privatePages--
	}
}

// releaseLocked returns everything a running request holds to the ledger:
// its private pages are freed and its path unpinned — the pages stay cached,
// evictable, so a preempted request re-admitted soon resumes from whatever
// prefix survived. The caller holds mu and removes rs from the running set.
func (e *Engine) releaseLocked(rs *reqState) {
	e.privatePages -= rs.pages
	rs.pages = 0
	e.tree.unpin(rs.nodes)
	clear(rs.nodes)
	rs.nodes = rs.nodes[:0]
	rs.sess, rs.cache = nil, nil
	e.runningLoad -= rs.load
	rs.load = 0
}

// pickLocked returns the queue index to admit next under the policy.
func (e *Engine) pickLocked() int {
	best := 0
	for i := 1; i < len(e.queue); i++ {
		a, b := e.queue[i], e.queue[best]
		switch e.cfg.Policy {
		case PolicySJF:
			if a.remaining() < b.remaining() ||
				(a.remaining() == b.remaining() && a.req.Arrival < b.req.Arrival) {
				best = i
			}
		default: // FCFS
			if a.req.Arrival < b.req.Arrival ||
				(a.req.Arrival == b.req.Arrival && a.req.ID < b.req.ID) {
				best = i
			}
		}
	}
	return best
}

// preemptForStep ensures the pages this iteration will open fit the
// budget. Unpinned cached pages go first, least recently released first;
// only when none is left are victims evicted back to the queue (their pages
// stay cached, unpinned, so the next pass of this loop takes just what the
// step needs and a re-admission resumes from the prefix that survived). The
// submit-time invariant guarantees a lone request always fits, so the loop
// terminates with at least one runner.
func (e *Engine) preemptForStep() {
	if e.pageBudget == 0 {
		return
	}
	for {
		needs := 0
		for _, rs := range e.running {
			// Mid-prefill requests open no pages this step: their whole
			// prompt was reserved at admission — as were a replaying
			// session's remaining prompt tokens.
			if rs.sess != nil && rs.replay == 0 && rs.sess.Pos()%e.cfg.PageTokens == 0 && !rs.reserved {
				needs++
			}
		}
		over := e.chargedPages() + needs - e.pageBudget
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
		v := e.victim()
		rs := e.running[v]
		e.running = append(e.running[:v], e.running[v+1:]...)
		midPrefill := rs.sess == nil
		e.mu.Lock()
		e.releaseLocked(rs)
		e.mu.Unlock()
		rs.prompt, rs.prefilled = nil, 0
		rs.preempts++
		// Offer the victim to the migration hook before requeueing it
		// locally: the fleet layer may re-admit it on a less loaded engine
		// instead (every emitted token is already in the buffered channel,
		// so the handoff serializes for free).
		migrated := e.cfg.Migrate != nil && e.cfg.Migrate(e.cfg.GPU, rs.req, len(rs.generated))
		e.mu.Lock()
		e.stats.Preemptions++
		if midPrefill {
			e.stats.PrefillPreempted++
		}
		if migrated {
			e.stats.MigratedOut++
			e.retireMigratedLocked(rs)
		} else {
			e.queue = append(e.queue, rs)
		}
		e.syncViewLocked()
		e.mu.Unlock()
	}
}

// victim picks the running index to evict: the newest arrival under FCFS
// (minimum lost work for the oldest requests), the longest predicted
// remainder under SJF.
func (e *Engine) victim() int {
	best := 0
	for i := 1; i < len(e.running); i++ {
		a, b := e.running[i], e.running[best]
		switch e.cfg.Policy {
		case PolicySJF:
			if a.remaining() > b.remaining() ||
				(a.remaining() == b.remaining() && a.req.Arrival > b.req.Arrival) {
				best = i
			}
		default:
			if a.req.Arrival > b.req.Arrival ||
				(a.req.Arrival == b.req.Arrival && a.req.ID > b.req.ID) {
				best = i
			}
		}
	}
	return best
}

// reapCancelled retires running requests whose context is done before
// spending another step on them. The view mirrors refresh in the same
// critical section as the retires: the last retire releases Drain waiters,
// and a caller returning from Drain must not read the pre-reap page count.
func (e *Engine) reapCancelled() {
	kept := e.running[:0]
	e.mu.Lock()
	for _, rs := range e.running {
		if rs.ctx.Err() != nil {
			e.releaseLocked(rs)
			e.retireLocked(rs, dispCancelled)
			continue
		}
		kept = append(kept, rs)
	}
	if len(kept) != len(e.running) {
		e.running = kept
		e.syncViewLocked()
	}
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
	// are packed below. Account pages the decode appends will open
	// (reserved first-step pages were charged at admission);
	// preemptForStep already made room. Prefill appends land in pages
	// reserved at admission, so packing more chunks opens no pages.
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
		if rs.replay > 0 {
			// Replay steps append prompt tokens whose pages were reserved
			// at admission; the reserved first-generation page (if any)
			// stays held for the first post-replay step.
			continue
		}
		if rs.sess.Pos()%e.cfg.PageTokens == 0 {
			if rs.reserved {
				rs.reserved = false
				continue
			}
			e.privatePages++
			rs.pages++
		}
	}
	// Snapshot the page peak here (it only grows in this loop) and fold it
	// into the post-step critical section below: one lock round-trip per
	// iteration instead of a mid-loop lock just for PeakPages.
	peakPages := e.usedPages()

	// Pack this iteration's prefill chunks, oldest admission first: the pass
	// carries chunks from every mid-prefill request until decode lanes +
	// chunk tokens reach the TokenBudget (the oldest prompt always
	// progresses by at least one token, even when decode lanes alone exceed
	// the budget).
	remaining := max(e.cfg.TokenBudget-len(e.stepSessions), 1)
	for _, rs := range e.running {
		if rs.sess != nil {
			continue
		}
		// Dense prefill stops short of the replay tail: those tokens
		// re-advance through decode steps once the session forms.
		end := len(rs.prompt) - rs.replay
		if rs.prefilled == end {
			// A prefix hit covered the whole dense span (possible only
			// with a replay tail): no chunk to run — the session starts
			// directly on the tail, whose first token is already known.
			rs.sess = core.NewPrefilledStepSession(e.m, rs.cache, rs.prompt[end])
			continue
		}
		n := min(end-rs.prefilled, e.cfg.PrefillChunk, remaining)
		e.chunks = append(e.chunks, core.PrefillChunk{
			Tokens: rs.prompt[rs.prefilled : rs.prefilled+n],
			Cache:  rs.cache,
			// The final chunk's logits decide the next token — unless a
			// replay tail follows, in which case the next token is a known
			// prompt token and the chunk's logits pass is skipped.
			Final: rs.prefilled+n == end && rs.replay == 0,
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
	chunkToks := 0
	for i, rs := range e.chunkReqs {
		ch := &e.chunks[i]
		chunkToks += len(ch.Tokens)
		rs.prefilled += len(ch.Tokens)
		if ch.Final {
			// nexts[i] is sent below, in this iteration; the session feeds it
			// in the next one if the request wants more.
			rs.sess = core.NewPrefilledStepSession(e.m, rs.cache, nexts[i])
		} else if rs.prefilled == len(rs.prompt)-rs.replay {
			// Dense span complete, replay tail ahead: seed the session
			// with the tail's (known) first token.
			rs.sess = core.NewPrefilledStepSession(e.m, rs.cache, rs.prompt[rs.prefilled])
		}
		e.chunks[i] = core.PrefillChunk{} // drop the cache reference
	}
	now := e.now()

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
	retired := false
	for i, rs := range e.chunkReqs {
		e.sealLocked(rs)
		if nexts[i] >= 0 { // -1 unless the chunk was Final
			retired = e.emitLocked(rs, nexts[i], now) || retired
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
		retired = e.emitLocked(rs, toks[i], now) || retired
	}
	if retired {
		kept := e.running[:0]
		for _, rs := range e.running {
			if rs.retired {
				rs.retired = false
				continue
			}
			kept = append(kept, rs)
		}
		e.running = kept
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
	// Drop session and request references so a retired request's KV cache
	// is not pinned by the reused scratch until the next iteration (the
	// chunk entries were zeroed above, right after the fused pass).
	for i := range e.stepSessions {
		e.stepSessions[i] = nil
	}
	for i := range e.stepReqs {
		e.stepReqs[i] = nil
	}
	for i := range e.chunkReqs {
		e.chunkReqs[i] = nil
	}
}

// emitLocked streams the token the pass just decided for rs and, when that
// was its MaxNew-th, retires it — the token is never fed, so a completed
// request runs MaxNew-1 decode lane-steps and caches all but its last token.
// It reports whether rs retired (marked for the running-set rebuild). The
// caller holds mu and has sealed the pages the pass filled.
func (e *Engine) emitLocked(rs *reqState, tok int, now float64) bool {
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
	// an invariant break. Terminal error sends — which have no such
	// per-stream budget argument — are all guarded selects
	// (failStreamLocked, the deadline-shed path in admitLocked).
	rs.ch <- Token{ID: tok, Pos: len(rs.req.Prompt) + len(rs.generated) - 1}
	if len(rs.generated) < rs.req.MaxNew {
		return false
	}
	e.releaseLocked(rs)
	e.retireLocked(rs, dispCompleted)
	rs.retired = true
	return true
}

// disposition names why a request retired — the counter it lands in.
type disposition int

const (
	dispCompleted disposition = iota // ran to its token cap
	dispCancelled                    // caller's ctx ended it
	dispShed                         // dropped past its TTFT deadline
)

// retireLocked closes a request's stream and records its outcome. The
// caller holds mu, has already released the request's pages, and — for a
// shed request — has already sent the terminal error token.
func (e *Engine) retireLocked(rs *reqState, disp disposition) {
	if rs.stopWatch != nil {
		rs.stopWatch()
	}
	close(rs.ch)
	now := e.now()
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
		GPU:         e.cfg.GPU,
		RespLen:     len(rs.generated),
		Start:       start,
		FirstToken:  first,
		Finish:      now,
		Preemptions: rs.preempts,
	})
	switch disp {
	case dispCompleted:
		e.stats.Completed++
	case dispShed:
		e.stats.Shed++
	default:
		e.stats.Cancelled++
	}
	e.pending--
	if e.pending == 0 {
		for _, w := range e.waiters {
			close(w)
		}
		e.waiters = nil
	}
}

// retireMigratedLocked retires a preemption victim the Migrate hook
// accepted: its stream closes (the migration layer resubmits the serialized
// request elsewhere and keeps the caller-facing stream open), no outcome is
// recorded here — the migration layer owns the request's end-to-end record
// — and the drain count drops. The caller holds mu and has already released
// the victim's pages and load.
func (e *Engine) retireMigratedLocked(rs *reqState) {
	if rs.stopWatch != nil {
		rs.stopWatch()
	}
	close(rs.ch)
	e.pending--
	if e.pending == 0 {
		for _, w := range e.waiters {
			close(w)
		}
		e.waiters = nil
	}
}

// failLocked aborts everything at Close: streams close, no outcomes are
// recorded for unfinished work, and drain waiters are released (reporting
// ErrClosed via the aborted flag when work was thrown away).
func (e *Engine) failLocked() {
	if len(e.queue) > 0 || len(e.running) > 0 {
		e.aborted = true
	}
	for _, rs := range e.queue {
		if rs.stopWatch != nil {
			rs.stopWatch()
		}
		close(rs.ch)
		e.pending--
	}
	e.queue = nil
	for _, rs := range e.running {
		if rs.stopWatch != nil {
			rs.stopWatch()
		}
		close(rs.ch)
		e.releaseLocked(rs)
		e.pending--
	}
	e.running = nil
	e.syncViewLocked()
	for _, w := range e.waiters {
		close(w)
	}
	e.waiters = nil
}
