package rethinkkv

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rethinkkv/internal/faults"
	"rethinkkv/internal/fleet"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/stats"
)

// translateServeErr maps internal engine sentinels onto the public ones so
// callers test against rethinkkv.Err* and messages stay "rethinkkv:"-
// prefixed at the facade boundary.
func translateServeErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, kvcache.ErrOutOfPages):
		return fmt.Errorf("%w (%v)", ErrOutOfPages, err)
	case errors.Is(err, sched.ErrClosed):
		return ErrServerClosed
	case errors.Is(err, fleet.ErrBadRoute):
		return fmt.Errorf("%w (%v)", ErrBadRoute, err)
	case errors.Is(err, sched.ErrOverloaded):
		return fmt.Errorf("%w (%v)", ErrOverloaded, err)
	case errors.Is(err, sched.ErrDeadlineExceeded):
		return fmt.Errorf("%w (%v)", ErrDeadlineExceeded, err)
	case errors.Is(err, sched.ErrEngineFailed):
		return fmt.Errorf("%w (%v)", ErrEngineFailed, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return err
	default:
		return fmt.Errorf("rethinkkv: %w", err)
	}
}

// ServeRequest is one request to the continuous-batching server.
type ServeRequest struct {
	// Prompt is the token sequence to prefill (required, in-vocabulary).
	Prompt []int
	// MaxNew caps the decoded tokens; 0 uses the server's
	// WithMaxNewTokens default.
	MaxNew int
	// Predicted is the predicted response length the sjf-predicted policy
	// orders by; 0 falls back to MaxNew.
	Predicted int
	// Deadline, if positive, is the request's TTFT budget measured from
	// this Submit call: a request still queued — no token streamed — when
	// it expires is shed, its stream closing with a final token whose Err
	// wraps ErrDeadlineExceeded. 0 uses the WithAdmissionTimeout default
	// (none if unset). Once a request streams its first token it is never
	// shed, however late it finishes.
	Deadline time.Duration
}

// PrefixCacheStats is the prefix cache's share of the page ledger, embedded
// unchanged from the scheduler up through ServerStats and FleetStats.
type PrefixCacheStats = sched.PrefixCacheStats

// ServerStats is a snapshot of the scheduler's lifetime counters.
type ServerStats struct {
	// Steps counts scheduling iterations (every prefill-complete request
	// advances one token per step; an iteration may also, or only, carry
	// a prefill chunk).
	Steps int
	// Admitted counts admissions, including re-admissions after
	// preemption.
	Admitted int
	// Preemptions counts evict-and-recompute events under KV pressure.
	Preemptions int
	// Completed and Cancelled count retired requests.
	Completed, Cancelled int
	// Shed counts requests dropped from the admission queue because their
	// TTFT deadline (ServeRequest.Deadline / WithAdmissionTimeout) passed
	// before decode started — deliberate load shedding, not failure.
	Shed int
	// PeakRunning is the largest concurrent decode batch formed.
	PeakRunning int
	// PeakKVPages is the most KV pages simultaneously referenced by live
	// requests plus the pre-warmed prefix; evictable cached pages are not
	// in use and not counted.
	PeakKVPages int
	// PrefillChunks counts prompt chunks advanced through the fused plane
	// (see WithPrefillChunk), one per chunk — a budget-packed iteration
	// carrying chunks from k prompts counts k; MixedSteps counts
	// iterations that carried at least one decode lane and at least one
	// prefill chunk in one fused weight pass; PrefillPreempted counts
	// preemption victims caught mid-prefill.
	PrefillChunks    int
	MixedSteps       int
	PrefillPreempted int
	// PackedChunks counts prefill chunks that shared their fused pass with
	// at least one other prompt's chunk — the stall-free packing
	// WithTokenBudget enables; always 0 in single-chunk mode. BudgetTokens
	// totals the tokens every scheduling iteration carried (decode lanes +
	// prefill chunk tokens), the utilisation numerator for the budget.
	PackedChunks int
	BudgetTokens int
	// PrefixHits counts requests whose admission found the start of their
	// prompt in the engine's prefix cache — pre-warmed by WithSharedPrefix
	// or learned from earlier requests; PrefixTokensSaved totals the prompt
	// tokens they did not prefill.
	PrefixHits        int
	PrefixTokensSaved int
	// PrefixCacheStats reports the prefix cache's share of the KV pages —
	// PrefixCachePages held right now, PrefixEvictions so far — and
	// RecomputeTokensSaved, what preempted requests found still cached.
	PrefixCacheStats
	// MigratedOut counts preemption victims handed to another engine
	// instead of re-queued locally. Always 0 on a standalone Server; a
	// Fleet reports it per engine (see FleetStats).
	MigratedOut int
	// SparsePagesSelected / SparsePagesTotal account WithSparseAttention's
	// page selection across every (layer, head) decode attention:
	// selected/total is the fraction of resident KV pages decode actually
	// read. Both stay 0 under dense serving (or when sparsity never
	// engaged because contexts stayed at or under topK pages).
	SparsePagesSelected int64
	SparsePagesTotal    int64
}

// serverStatsFrom converts the internal scheduler counters to their public
// form — shared by Server.Stats and Fleet.Stats so the two surfaces cannot
// drift.
func serverStatsFrom(st sched.Stats) ServerStats {
	return ServerStats{
		Steps:               st.Steps,
		Admitted:            st.Admitted,
		Preemptions:         st.Preemptions,
		Completed:           st.Completed,
		Cancelled:           st.Cancelled,
		Shed:                st.Shed,
		PeakRunning:         st.PeakRunning,
		PeakKVPages:         st.PeakPages,
		PrefillChunks:       st.PrefillChunks,
		MixedSteps:          st.MixedSteps,
		PrefillPreempted:    st.PrefillPreempted,
		PackedChunks:        st.PackedChunks,
		BudgetTokens:        st.BudgetTokens,
		PrefixHits:          st.PrefixHits,
		PrefixTokensSaved:   st.PrefixTokensSaved,
		PrefixCacheStats:    st.PrefixCacheStats,
		MigratedOut:         st.MigratedOut,
		SparsePagesSelected: st.SparsePagesSelected,
		SparsePagesTotal:    st.SparsePagesTotal,
	}
}

// Server is a continuous-batching serving engine over the real tiny-model
// decode loop and a paged KV cache: requests join and leave the running
// batch at every decode iteration, stream their tokens as produced, and
// are preempted and recomputed when the KV page budget (WithKVPages) runs
// out. It is the live-traffic counterpart of the simulated Cluster — both
// report the same Outcome metrics (TTFT, TBOT, E2E), the server in
// wall-clock seconds.
type Server struct {
	cfg    config
	eng    *sched.Engine
	nextID atomic.Int64
}

// NewServer starts a continuous-batching server. Options: WithSeed,
// WithMaxNewTokens, WithMaxBatch, WithKVPages, WithPageTokens,
// WithPrefillChunk, WithSchedPolicy, WithKVQuant. Unknown policies return
// ErrUnknownPolicy; unknown KV quant methods return ErrUnknownQuantMethod.
// The server decodes full-precision paged KV by default; WithKVQuant
// switches the pages to int8/int4 codes streamed through fused
// dequantize-on-read kernels. Close it with Close when done.
func NewServer(opts ...Option) (*Server, error) {
	cfg := buildConfig(opts)
	scfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.faults != nil {
		// A standalone server is engine 0 of its own one-replica fleet.
		inj := buildInjector(cfg.faults)
		scfg.StepHook = inj.StepHook(0)
		scfg.SubmitHook = inj.SubmitHook(0)
	}
	eng, err := sched.New(engineModel(cfg), scfg)
	if err != nil {
		return nil, translateServeErr(err)
	}
	return &Server{cfg: cfg, eng: eng}, nil
}

// buildInjector materialises a FaultPlan into the internal deterministic
// injector the engines consume.
func buildInjector(plan *FaultPlan) *faults.Injector {
	inj := faults.New(plan.Seed)
	for gpu, step := range plan.StepPanics {
		inj.PanicAt(gpu, step)
	}
	for gpu, n := range plan.SubmitStorms {
		inj.SubmitStorm(gpu, n)
	}
	for gpu, d := range plan.StepDelays {
		inj.Delay(gpu, d)
	}
	return inj
}

// Vocab returns the served model's vocabulary size.
func (s *Server) Vocab() int { return model.Tiny().Vocab }

// Submit enqueues a request and returns its token stream. The channel is
// buffered to the request's full budget (the server never blocks on a slow
// consumer) and closes when the request completes, ctx is cancelled, or
// the server shuts down. Submission fails fast with ErrOutOfPages when the
// request cannot fit the page budget even running alone, with
// ErrOverloaded when the WithMaxQueue admission bound is full, and with
// ErrServerClosed after Close. A request that is admitted but shed past
// its TTFT deadline, or orphaned by an engine failure, ends its stream
// with a final token whose Err wraps ErrDeadlineExceeded or
// ErrEngineFailed; tokens with Err == nil are ordinary output.
func (s *Server) Submit(ctx context.Context, req ServeRequest) (<-chan Token, error) {
	if err := validatePrompt(req.Prompt, s.Vocab()); err != nil {
		return nil, err
	}
	var dl float64
	if req.Deadline > 0 {
		dl = s.eng.Now() + req.Deadline.Seconds()
	}
	maxNew := req.MaxNew
	if maxNew <= 0 {
		maxNew = s.cfg.maxNew
	}
	ch, err := s.eng.Submit(ctx, sched.Request{
		ID:        int(s.nextID.Add(1)) - 1, // submission order, 0-based
		Prompt:    req.Prompt,
		MaxNew:    req.MaxNew,
		Predicted: req.Predicted,
		Arrival:   -1, // stamp at submit time
		Deadline:  dl,
	})
	if err != nil {
		return nil, translateServeErr(err)
	}
	return translateStream(ch, maxNew+1), nil
}

// translateStream forwards an engine stream, rewriting any terminal error
// token's Err onto the public sentinels (translateServeErr) so stream
// consumers can errors.Is against rethinkkv.Err*. The buffer matches the
// engine-side stream (token budget plus one error slot), so forwarding
// never blocks on a slow consumer any more than the engine itself would.
func translateStream(ch <-chan sched.Token, buf int) <-chan Token {
	out := make(chan Token, buf)
	go func() {
		defer close(out)
		for tok := range ch {
			if tok.Err != nil {
				tok.Err = translateServeErr(tok.Err)
			}
			out <- tok
		}
	}()
	return out
}

// Drain blocks until every request submitted so far has retired, or ctx is
// cancelled. Submit keeps working during a drain; callers that want a
// quiescent server stop submitting first. A drain cut short by Close
// reports ErrServerClosed.
func (s *Server) Drain(ctx context.Context) error {
	return translateServeErr(s.eng.Drain(ctx))
}

// Close shuts the server down; in-flight streams are closed without
// completing. Close is idempotent.
func (s *Server) Close() { s.eng.Close() }

// Outcomes returns the per-request serving records of every retired
// request so far — the same Outcome type (and TTFT/TBOT/E2E accessors)
// the simulated Cluster produces, measured in wall-clock seconds.
func (s *Server) Outcomes() []Outcome { return s.eng.Outcomes() }

// Stats returns a snapshot of the scheduler counters.
func (s *Server) Stats() ServerStats {
	return serverStatsFrom(s.eng.Stats())
}

// Failed reports the server's terminal failure (wrapping ErrEngineFailed)
// or nil while it is healthy. A failed server rejects new Submits and
// reports the same error from Drain; its live streams ended with an error
// token when the failure struck.
func (s *Server) Failed() error { return translateServeErr(s.eng.Failed()) }

// PageBudget returns the engine's effective KV page budget: WithKVPages(n)
// as-is for full-precision pages, or the larger page count the same byte
// budget holds under WithKVQuant. 0 means unbounded.
func (s *Server) PageBudget() int { return s.eng.View().PageBudget }

// MeanTTFT returns the average time-to-first-token of outcomes, seconds.
func MeanTTFT(outcomes []Outcome) float64 {
	return stats.Mean(serving.TTFTs(outcomes))
}

// TokensPerSec returns aggregate generated tokens per second over the
// run's makespan — the serving-throughput headline number.
func TokensPerSec(outcomes []Outcome) float64 {
	return serving.TokensPerSec(outcomes)
}

// Makespan returns the span from the earliest arrival to the latest
// finish — the denominator of TokensPerSec.
func Makespan(outcomes []Outcome) float64 { return serving.Makespan(outcomes) }

// TotalTokens sums the generated (response) tokens across outcomes.
func TotalTokens(outcomes []Outcome) int { return serving.TotalTokens(outcomes) }

// TTFTs extracts per-request time-to-first-token latencies.
func TTFTs(outcomes []Outcome) []float64 { return serving.TTFTs(outcomes) }

// Percentile returns the p-th percentile (p in [0,100]) of xs with linear
// interpolation — a convenience over TTFTs/E2Es for latency reporting.
func Percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// SLO names the per-request latency deadlines goodput is graded on: time to
// first token and mean time between output tokens, in seconds. A zero
// deadline leaves that metric unconstrained.
type SLO = serving.SLO

// SLOGoodput returns the fraction of generated tokens belonging to requests
// that met both SLO deadlines — goodput as a share of raw throughput,
// token-weighted so long blown-deadline responses count at full cost.
func SLOGoodput(outcomes []Outcome, slo SLO) float64 {
	return serving.SLOGoodput(outcomes, slo)
}
