// Package router implements the four request-routing policies of the
// paper's Section 5.4 (Table 8):
//
//   - Baseline: load-balance to the least-loaded GPU (the paper routes to
//     the GPU with minimum memory usage; backlog tokens are the equivalent
//     signal in simulation).
//   - WithThroughput: route to the GPU with the highest predicted decoding
//     throughput for this request, discounted by current backlog.
//   - WithLength: route to the GPU with the minimum predicted response
//     length. Used alone this herds requests onto the FP16 GPU and can
//     *hurt* latency (the paper measures 0.83–1.03×) — the policy is
//     deliberately queue-blind, as in the paper.
//   - WithBoth: route to the GPU with the minimum predicted end-to-end
//     latency: queueing wait + prefill + predicted length / predicted
//     decode throughput. The paper's best (1.45–1.80×).
package router

import (
	"math"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/predictor"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// Predictors bundles the per-method tools a policy may consult, keyed by
// method name.
type Predictors struct {
	Thr map[string]*predictor.ThroughputPredictor
	Len map[string]*predictor.LengthPredictor
	// Salt is the feature-extraction salt shared with training.
	Salt uint64
}

// Train builds the suite the predictor-driven policies consult, as the
// paper's Section 5 tooling does: for each distinct method among ests, a
// throughput predictor profiled over its estimator (seed+2) and a length
// predictor fit to the length model's generations on train (seed+3),
// featurised with salt.
func Train(train []workload.Request, lm gen.LengthModel, ests []*perf.Estimator, seed, salt uint64) Predictors {
	p := Predictors{
		Thr:  map[string]*predictor.ThroughputPredictor{},
		Len:  map[string]*predictor.LengthPredictor{},
		Salt: salt,
	}
	for _, est := range ests {
		m := est.Method
		if _, done := p.Thr[m.Name]; done {
			continue
		}
		p.Thr[m.Name] = predictor.TrainThroughput(est, predictor.DefaultGrid(), seed+2)
		p.Len[m.Name] = predictor.TrainLength(train, lm.Run(train, m, seed+3), m, salt)
	}
	return p
}

// Baseline load-balances on backlog.
type Baseline struct{}

// Name implements serving.Router.
func (Baseline) Name() string { return "baseline" }

// Route picks the GPU with minimum memory usage, as the paper's baseline
// does: queued + resident tokens proxy the KV footprint. Memory is a weak
// load signal — it does not see how much *compute* the queued requests
// still need — which is exactly why the predictor-driven policies beat it.
func (Baseline) Route(req workload.Request, views []serving.GPUView) int {
	best, bestLoad := 0, math.Inf(1)
	for i, v := range views {
		if v.QueuedTokens < bestLoad {
			best, bestLoad = i, v.QueuedTokens
		}
	}
	return best
}

// WithThroughput routes by predicted decode throughput, discounted by wait.
type WithThroughput struct{ P Predictors }

// Name implements serving.Router.
func (WithThroughput) Name() string { return "w/throughput" }

// Route implements serving.Router.
func (r WithThroughput) Route(req workload.Request, views []serving.GPUView) int {
	best, bestScore := 0, math.Inf(-1)
	for i, v := range views {
		tp := r.P.Thr[v.Method]
		if tp == nil {
			continue
		}
		kv := req.PromptLen + expectedResp(req, tp.Method())/2
		thr := tp.PredictDecodeThroughput(1, kv)
		score := thr / (1 + v.Wait())
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// WithLength routes to the minimum predicted response length, queue-blind.
type WithLength struct {
	P Predictors
	// Hysteresis, when positive, damps the herding failure mode of pure
	// length routing: engines whose predicted length is within the relative
	// band (1+Hysteresis)·min are treated as equivalent, and the
	// least-loaded of them (backlog plus in-flight prefill debt) wins. In a
	// homogeneous fleet every engine predicts the same length, so the
	// queue-blind policy sends an entire burst to engine 0; the band turns
	// those exact ties into load-balanced spread while still preferring a
	// genuinely shorter engine outside the band. Zero keeps the paper's
	// strict queue-blind argmin, which the Table 8 simulations measure.
	Hysteresis float64
}

// Name implements serving.Router.
func (WithLength) Name() string { return "w/length" }

// Route implements serving.Router.
func (r WithLength) Route(req workload.Request, views []serving.GPUView) int {
	best, bestLen := 0, math.Inf(1)
	lens := make([]float64, len(views))
	for i := range lens {
		lens[i] = math.Inf(1)
	}
	for i, v := range views {
		lp := r.P.Len[v.Method]
		if lp == nil {
			continue
		}
		lens[i] = lp.PredictLen(req, r.P.Salt)
		if lens[i] < bestLen {
			best, bestLen = i, lens[i]
		}
	}
	if r.Hysteresis <= 0 || math.IsInf(bestLen, 1) {
		return best
	}
	band := bestLen * (1 + r.Hysteresis)
	bestLoad := math.Inf(1)
	for i, v := range views {
		if lens[i] > band {
			continue
		}
		load := v.QueuedTokens + float64(v.PrefillTokens)
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// WithBoth routes to the minimum predicted end-to-end latency.
type WithBoth struct{ P Predictors }

// Name implements serving.Router.
func (WithBoth) Name() string { return "w/both" }

// Route implements serving.Router.
func (r WithBoth) Route(req workload.Request, views []serving.GPUView) int {
	best, bestLat := 0, math.Inf(1)
	for i, v := range views {
		tp := r.P.Thr[v.Method]
		lp := r.P.Len[v.Method]
		if tp == nil || lp == nil {
			continue
		}
		respLen := lp.PredictLen(req, r.P.Salt)
		lat := v.Wait() + tp.PredictE2E(req.PromptLen, int(respLen+0.5))
		if lat < bestLat {
			best, bestLat = i, lat
		}
	}
	return best
}

// KVPressure routes on live KV-cache headroom — a policy only a real
// multi-engine backend can drive, since the discrete-event simulator has no
// paged cache. The engine's cost for a request is its backlog plus its
// in-flight chunked-prefill debt; on top of that, an engine whose free page
// budget cannot hold the request's predicted KV demand (prompt + predicted
// response) pays a heavy shortfall penalty, because admitting the request
// there risks preemption and bit-identical-but-wasted recompute. Views with
// PageBudget == 0 (unbounded or simulated) skip the penalty, degrading the
// policy to backlog+prefill load balancing.
type KVPressure struct {
	// P optionally refines the demand estimate with the per-method length
	// predictor; nil falls back to the request's reference length.
	P *Predictors
}

// Name implements serving.Router.
func (KVPressure) Name() string { return "kv-pressure" }

// Route implements serving.Router.
func (r KVPressure) Route(req workload.Request, views []serving.GPUView) int {
	best, bestCost := 0, math.Inf(1)
	for i, v := range views {
		demand := float64(req.PromptLen + req.RefLen)
		if r.P != nil {
			if lp := r.P.Len[v.Method]; lp != nil {
				demand = float64(req.PromptLen) + lp.PredictLen(req, r.P.Salt)
			}
		}
		cost := v.QueuedTokens + float64(v.PrefillTokens)
		if v.PageBudget > 0 && v.FreePages >= 0 {
			if short := demand - float64(v.FreePages*v.PageTokens); short > 0 {
				// The shortfall weight trades pages against queueing: 8
				// backlog tokens per missing resident token makes a
				// fitting engine win over all but pathological queues.
				cost += 8 * short
			}
		}
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// expectedResp is the policy-side coarse response estimate when no length
// predictor is attached: the reference length shifted by mean severity.
func expectedResp(req workload.Request, m compress.Method) int {
	sev := gen.Severity(m, req.PromptLen, req.RefLen)
	return int(float64(req.RefLen) * (1 + 0.7*sev))
}
