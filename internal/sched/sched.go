// Package sched is the continuous-batching serving engine: the control
// plane that runs the real tiny-model decode loop (internal/core,
// internal/model) over the paged KV data plane (kvcache.PagedKV) under a
// global page budget.
//
// Where internal/serving *simulates* a cluster against the analytical cost
// model in virtual time, this engine actually serves: requests are
// admitted from a policy-ordered queue, join and leave the running batch
// at every decode iteration (iteration-level scheduling) and stream their
// tokens as they are produced. A request's length is known at admission —
// MaxNew, or Request.Predicted when set — so a request is admitted only once
// the page budget holds it and every running request to retirement
// (projectedPeak); one that outlives a too-short Predicted can still run
// the budget out, and then a request is preempted — pages released, request
// requeued for recompute. Every page a
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
// The files follow a request's lifecycle around engine.go's loop: admit.go
// (queue, order, admission), step.go (preemption, the fused pass, emission)
// and retire.go (the one place a stream ends, and the handoff that moves a
// live request to another engine instead).
//
// Both planes speak one metrics vocabulary: the engine emits the same
// serving.Outcome records (TTFT, TBOT, E2E) the simulator does, in
// wall-clock instead of simulated seconds.
package sched

import (
	"errors"
	"fmt"
	"time"
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
	// (the engine's step loop panicked and no other engine resumed the
	// request) or ErrDeadlineExceeded (the request was shed from the admission
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
// wrapping this sentinel (unless Config.Handoff resumes them on a healthy
// engine), and every later Submit, Resume or Drain fails with it.
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
	// PrefillChunk caps the prompt tokens one admitted prompt advances per
	// scheduling iteration: instead of prefilling a whole admitted prompt
	// under the engine lock (stalling every running decode stream for the
	// prompt's full forward cost), the loop advances each mid-prefill prompt
	// by at most PrefillChunk positions per iteration, packed under
	// TokenBudget into the same weight pass as the running decode batch
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
	// Epoch, when non-zero, is the clock origin all engine timestamps
	// (arrivals, TTFT, finish) are measured from. Multi-engine trace
	// replay passes one shared epoch so outcomes from different engines
	// are comparable; zero means "engine construction time".
	Epoch time.Time
	// Handoff, when non-nil, is offered the live requests the engine gives
	// up: every preemption victim, and every queued or running request once
	// the recover boundary has marked the engine failed. The hook moves one
	// by calling Resume(h) on another engine, which takes the request whole:
	// its stream, the tokens already sent on it and its record. A request the
	// hook does not resume stays here: a victim goes back on the queue, a
	// failed engine's request ends on the failure's error token. Until the
	// hook returns the request is on neither engine's lists. The hook runs on
	// the loop goroutine with no engine lock held, so it may read this or
	// other engines' View, but it must not block on this engine's progress
	// (e.g. by draining it). A panic in it fails the engine like any other
	// step-loop panic; offered a failed engine's request, a panic refuses it.
	Handoff func(h *Handle)
	// KVQuantBits selects quantized KV pages for every request cache: 0
	// (default) stores full-precision fp32 pages, 8 or 4 stores
	// uniform-quantized codes with float16 scale pairs. KVPages stays
	// denominated in fp32-page bytes — the engine converts it once into the
	// larger number of quantized pages the same byte budget holds
	// (kvcache.ScaledPageBudget), which is where quantization buys
	// capacity: more sequences admitted to run side by side to retirement,
	// identical byte footprint. Decode streams codes through the fused dequantize-on-read
	// kernels, so outputs are deterministic (recompute-exact) though not
	// bit-identical to fp32 serving.
	KVQuantBits int
	// MaxQueue bounds the admission queue: a Submit finding MaxQueue
	// requests already waiting fails fast with ErrOverloaded instead of
	// growing the backlog without bound. 0 means unbounded.
	MaxQueue int
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
	// Predicted is the predicted response length; 0 falls back to MaxNew.
	// PolicySJF orders by it, and under a page budget admission plans the
	// request's page demand to retirement from it, capped at MaxNew
	// (lifetimeOf): a request that outlives a too-short value can be
	// preempted and recomputed. Trace replay feeds the trace's reference
	// length here, mirroring the paper's predictor-driven routing.
	Predicted int
	// Arrival is seconds since engine start; negative means "stamp at
	// submit time" (the live-traffic case). Trace replay passes the
	// trace's arrival so queueing delay is measured against intent.
	Arrival float64
	// Deadline, in seconds on the engine clock (the same origin as
	// Arrival), is the request's TTFT deadline: if it has never been
	// admitted — on this engine or any it was handed from — past this
	// instant, the engine sheds it with an ErrDeadlineExceeded error token
	// instead of spending pages on work that can no longer meet its SLO. 0
	// means none; the engine stamps no default of its own. A request that
	// started is never shed, not even when preemption or a handoff has put
	// it back on a queue: it finishes late, which the outcome records.
	Deadline float64
}

// Stats are engine-lifetime counters. The facade exports the type unchanged
// as rethinkkv.ServerStats, one per engine inside fleet.Stats.
type Stats struct {
	Steps       int // scheduling iterations executed (decode, prefill chunk, or both)
	Admitted    int // admissions incl. re-admissions after preemption
	Preemptions int // evict-and-requeue events
	// AdmitDeferred counts the admission passes whose head request fit the
	// pages free at the time but not the running set's projected growth to
	// retirement, so it waited in the queue instead of being admitted and
	// preempted later.
	AdmitDeferred int
	Completed     int // requests finished to their token cap
	Cancelled     int // requests retired early by their context
	PeakRunning   int // max concurrent decode streams
	// PeakPages is what View.UsedPages peaked at, read after every admission
	// and right after every fused pass. Pages the prefix cache keeps beyond
	// that are evictable and reported separately (PrefixCacheStats).
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
	// MigratedOut counts the requests another engine resumed through the
	// Config.Handoff hook: preemption victims not requeued here and, once
	// the engine failed, the requests it held; always 0 on an engine outside
	// a fleet.
	MigratedOut int
	// Shed counts queued requests dropped past their TTFT deadline
	// (Request.Deadline) — deliberate load shedding, distinct from
	// Cancelled (caller gave up) and from the streams an engine failure
	// terminates.
	Shed int
	// SparsePagesSelected / SparsePagesTotal sum, over every sparse decode
	// attention the engine ran, the pages attended vs the pages resident —
	// selected/total is the fleet-visible attention-traffic ratio sparse
	// attention achieved. Both stay 0 when sparsity is off or contexts
	// never exceeded the page budget topK.
	SparsePagesSelected int64
	SparsePagesTotal    int64
	// PoolPagesOut counts the pages the engine's KV page pool has handed out
	// and not got back, per layer: Layers for every page allocated (a
	// promised page is not out), so after Close it is Layers*PrefixCachePages.
	PoolPagesOut int
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
	// predicted remaining at admission).
	BacklogTokens float64
	// UsedPages is the KV pages out or promised, less the prefix cache's
	// unpinned ones: the part of the budget that cannot be reclaimed. Pages
	// the prefix cache merely retains are evicted on demand and count as free.
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
