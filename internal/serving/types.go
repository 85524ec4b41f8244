package serving

import (
	"rethinkkv/internal/compress"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/stats"
	"rethinkkv/internal/workload"
)

// This file is the shared metrics vocabulary of the serving layer: the
// per-request Outcome record, the Router contract, and the latency /
// throughput helpers derived from them. Two backends produce Outcomes —
// the discrete-event simulator in this package (analytical cost model,
// virtual time) and the continuous-batching engine in internal/sched
// (real tiny-model decode, wall-clock time) — so everything here must stay
// backend-agnostic: plain data in, derived metrics out.

// GPUView is the router-visible state of one GPU at decision time.
//
// The first block of fields is populated by both backends; the live block
// below it comes from real continuous-batching engines only (the
// discrete-event simulator has no paged cache or chunked prefill, so it
// leaves those fields zero). Policies that consult the live block must
// treat PageBudget == 0 as "unbounded / unknown".
type GPUView struct {
	ID     int
	Method compress.Method
	Est    *perf.Estimator
	// FreeAt is when the GPU finishes all committed work.
	FreeAt float64
	// QueuedTokens is the backlog in (prompt + expected response) tokens.
	QueuedTokens float64
	// Now is the decision timestamp.
	Now float64

	// Running is the engine's live running-set size (decoding plus
	// mid-prefill requests).
	Running int
	// FreePages is the engine's unused KV page budget at decision time;
	// -1 when the budget is unbounded. Meaningful only with PageBudget > 0.
	FreePages int
	// PageBudget is the engine's configured KV page budget (0 = unbounded)
	// and PageTokens its page size in tokens.
	PageBudget int
	PageTokens int
	// PrefillTokens counts admitted prompt tokens not yet prefilled — the
	// in-flight chunked-prefill debt ahead of any new arrival.
	PrefillTokens int
}

// Wait returns the expected queueing delay before new work starts.
func (v GPUView) Wait() float64 {
	return stats.MaxF(v.FreeAt-v.Now, 0)
}

// Router assigns an arriving request to a GPU.
type Router interface {
	Name() string
	Route(req workload.Request, views []GPUView) int
}

// Outcome is one served request.
type Outcome struct {
	Req     workload.Request
	GPU     int
	RespLen int
	Start   float64 // when its batch began prefill
	// FirstToken is when the request's first output token was produced
	// (its batch's prefill completion).
	FirstToken float64
	Finish     float64 // when its last token was produced
	// Preemptions counts how many times the request was evicted and
	// recomputed before finishing (always 0 in the simulator, which never
	// preempts; the real engine preempts under KV page pressure).
	Preemptions int
}

// E2E returns the end-to-end latency including queueing.
func (o Outcome) E2E() float64 { return o.Finish - o.Req.ArrivalTime }

// TTFT returns the time to first token including queueing — one of the two
// key production metrics the paper names (Section 2.4).
func (o Outcome) TTFT() float64 { return o.FirstToken - o.Req.ArrivalTime }

// TBOT returns the mean time between output tokens — the paper's second
// key production metric.
func (o Outcome) TBOT() float64 {
	if o.RespLen <= 1 {
		return 0
	}
	return (o.Finish - o.FirstToken) / float64(o.RespLen-1)
}

// MeanE2E returns the average end-to-end latency of a run — Table 8's cell
// value.
func MeanE2E(outcomes []Outcome) float64 {
	return stats.Mean(E2Es(outcomes))
}

// E2Es extracts per-request end-to-end latencies (Figure 5's CDF input).
func E2Es(outcomes []Outcome) []float64 {
	out := make([]float64, len(outcomes))
	for i, o := range outcomes {
		out[i] = o.E2E()
	}
	return out
}

// TTFTs extracts per-request time-to-first-token latencies.
func TTFTs(outcomes []Outcome) []float64 {
	out := make([]float64, len(outcomes))
	for i, o := range outcomes {
		out[i] = o.TTFT()
	}
	return out
}

// TotalTokens sums the generated (response) tokens across outcomes.
func TotalTokens(outcomes []Outcome) int {
	n := 0
	for _, o := range outcomes {
		n += o.RespLen
	}
	return n
}

// Makespan returns the span from the earliest arrival to the latest finish,
// the denominator of aggregate serving throughput.
func Makespan(outcomes []Outcome) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	first := outcomes[0].Req.ArrivalTime
	last := outcomes[0].Finish
	for _, o := range outcomes[1:] {
		first = stats.MinF(first, o.Req.ArrivalTime)
		last = stats.MaxF(last, o.Finish)
	}
	return last - first
}

// TokensPerSec returns aggregate generated tokens per second over the run's
// makespan, or 0 for an empty or instantaneous run.
func TokensPerSec(outcomes []Outcome) float64 {
	span := Makespan(outcomes)
	if span <= 0 {
		return 0
	}
	return float64(TotalTokens(outcomes)) / span
}
