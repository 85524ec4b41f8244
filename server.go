package rethinkkv

import (
	"context"
	"sync/atomic"
	"time"

	"rethinkkv/internal/faults"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/stats"
)

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

// ServerStats is a snapshot of one engine's lifetime scheduler counters —
// the scheduler's own type, so a counter added there is public with no
// copying. PeakPages is the most KV pages simultaneously referenced by live
// requests plus the pre-warmed prefix.
type ServerStats = sched.Stats

// PrefixCacheStats is the prefix cache's share of the page ledger, embedded
// in ServerStats.
type PrefixCacheStats = sched.PrefixCacheStats

// Server is a continuous-batching serving engine over the real tiny-model
// decode loop and a paged KV cache: requests join and leave the running
// batch at every decode iteration, stream their tokens as produced, and
// are preempted and recomputed when the KV page budget (WithKVPages) runs
// out. It is the live-traffic counterpart of the simulated Cluster — both
// report the same Outcome metrics (TTFT, TBOT, E2E), the server in
// wall-clock seconds.
type Server struct {
	front frontend
	eng   *sched.Engine
}

// NewServer starts a continuous-batching server. Options: WithSeed,
// WithMaxNewTokens, WithMaxBatch, WithKVPages, WithPageTokens,
// WithPrefillChunk, WithTokenBudget, WithSchedPolicy, WithKVQuant,
// WithSparseAttention, WithSharedPrefix, WithMaxQueue, WithAdmissionTimeout,
// WithFaults. Unknown policies return ErrUnknownPolicy; unknown KV quant
// methods return ErrUnknownQuantMethod; an out-of-range value returns
// ErrInvalidOption. Serving errors — from Submit, Drain, Failed, or a
// stream's final token — are the engine's own values, which the Err*
// sentinels alias (errors.go), so their messages carry the engine's prefix.
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
	m := engineModel(cfg)
	eng, err := sched.New(m, scfg)
	if err != nil {
		return nil, err
	}
	return &Server{
		front: frontend{vocab: m.Config().Vocab, now: eng.Now, enqueue: eng.Submit},
		eng:   eng,
	}, nil
}

// buildInjector materialises a FaultPlan into the internal deterministic
// injector the engines consume.
func buildInjector(plan *FaultPlan) *faults.Injector {
	inj := faults.New()
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

// frontend is the request-building half of Submit that Server and Fleet
// share; they differ only in the backend: an engine or a pool, for its clock
// and its Submit.
type frontend struct {
	vocab   int // the served model's vocabulary
	nextID  atomic.Int64
	now     func() float64 // backend clock, seconds since its epoch
	enqueue func(context.Context, sched.Request) (<-chan sched.Token, error)
}

// Submit validates the prompt, resolves the TTFT deadline against the
// backend clock, numbers the request in submission order (0-based) and
// returns the backend's own stream: the engine's channel for a Server, the
// pool's hop-splicing forwarder's for a Fleet.
func (f *frontend) Submit(ctx context.Context, req ServeRequest) (<-chan Token, error) {
	if err := validatePrompt(req.Prompt, f.vocab); err != nil {
		return nil, err
	}
	var dl float64
	if req.Deadline > 0 {
		dl = f.now() + req.Deadline.Seconds()
	}
	return f.enqueue(ctx, sched.Request{
		ID:        int(f.nextID.Add(1)) - 1,
		Prompt:    req.Prompt,
		MaxNew:    req.MaxNew,
		Predicted: req.Predicted,
		Arrival:   -1, // stamp at submit time
		Deadline:  dl,
	})
}

// Vocab returns the served model's vocabulary size.
func (s *Server) Vocab() int { return s.front.vocab }

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
	return s.front.Submit(ctx, req)
}

// Drain blocks until every request submitted so far has retired, or ctx is
// cancelled. Submit keeps working during a drain; callers that want a
// quiescent server stop submitting first. A drain cut short by Close
// reports ErrServerClosed.
func (s *Server) Drain(ctx context.Context) error {
	return s.eng.Drain(ctx)
}

// Close shuts the server down; in-flight streams are closed without
// completing. Close is idempotent.
func (s *Server) Close() { s.eng.Close() }

// Outcomes returns the per-request serving records of every retired
// request so far — the same Outcome type (and TTFT/TBOT/E2E accessors)
// the simulated Cluster produces, measured in wall-clock seconds.
func (s *Server) Outcomes() []Outcome { return s.eng.Outcomes() }

// Stats returns a snapshot of the scheduler counters.
func (s *Server) Stats() ServerStats { return s.eng.Stats() }

// Failed reports the server's terminal failure (wrapping ErrEngineFailed)
// or nil while it is healthy. A failed server rejects new Submits and
// reports the same error from Drain; its live streams ended with an error
// token when the failure struck.
func (s *Server) Failed() error { return s.eng.Failed() }

// PageBudget returns the engine's effective KV page budget: WithKVPages(n)
// as-is for full-precision pages, or the larger page count the same byte
// budget holds under WithKVQuant. 0 means unbounded.
func (s *Server) PageBudget() int { return s.eng.View().PageBudget }

// TokensPerSec returns aggregate generated tokens per second over the span
// from the earliest arrival to the latest finish.
func TokensPerSec(outcomes []Outcome) float64 {
	return serving.TokensPerSec(outcomes)
}

// TTFTs extracts per-request time-to-first-token latencies.
func TTFTs(outcomes []Outcome) []float64 { return serving.TTFTs(outcomes) }

// Percentile returns the p-th percentile (p in [0,100]) of xs with linear
// interpolation — a convenience over TTFTs/E2Es for latency reporting.
func Percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }
