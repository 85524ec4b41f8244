package rethinkkv

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rethinkkv/internal/fleet"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/router"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// Request is one ShareGPT-like serving request (ID, prompt length, reference
// response length, arrival time).
type Request = workload.Request

// Outcome is one served request: its GPU, realised response length, and the
// batch timing from which E2E, TTFT, and TBOT derive.
type Outcome = serving.Outcome

// GPUView is the router-visible state of one GPU at routing time: its
// position, method name and backlog from every backend, and the live KV and
// prefill state from real engines only (see the field docs).
type GPUView = serving.GPUView

// Router assigns each arriving request to a GPU index. Implement it for
// custom policies, or obtain one of the paper's four policies from
// Cluster.Router. Returning an index outside [0, len(views)) makes
// ServeTrace fail with an error.
type Router = serving.Router

// Cluster is a simulated multi-GPU serving fleet: one compression method per
// GPU, batch service times from the analytical cost model, and per-request
// response lengths from the length model (so compression's verbose-output
// effect degrades its own end-to-end latency, as the paper observes).
type Cluster struct {
	cfg    config
	sim    *serving.Cluster
	engine sched.Config // what each WithRealEngine GPU serves with

	mu    sync.Mutex
	preds *router.Predictors
}

// NewCluster builds a fleet with one GPU per method name. Options:
// WithHardware, WithModel, WithEngine, WithTP, WithBatchCap, WithSeed, and
// WithRealEngine with the engine options it serves under — WithMaxNewTokens,
// WithMaxBatch, WithKVPages, WithPageTokens, WithPrefillChunk,
// WithTokenBudget, WithSchedPolicy, WithKVQuant, WithSparseAttention,
// WithSharedPrefix, WithMaxQueue and WithAdmissionTimeout.
// The engine options are validated here whichever backend serves.
func NewCluster(methods []string, opts ...Option) (*Cluster, error) {
	if len(methods) == 0 {
		return nil, ErrEmptyCluster
	}
	cfg := buildConfig(opts)
	if cfg.batchCap <= 0 {
		return nil, fmt.Errorf("%w: batch cap must be positive, got %d", ErrInvalidOption, cfg.batchCap)
	}
	// Only the WithRealEngine backend uses the engine options, but a bad
	// one is a construction-time mistake either way: fail here like
	// NewServer rather than mid-ServeTrace.
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	sim := &serving.Cluster{BatchCap: cfg.batchCap, LM: gen.Default(), Seed: cfg.seed}
	for i, name := range methods {
		est, err := newEstimator(cfg, name)
		if err != nil {
			return nil, err
		}
		sim.GPUs = append(sim.GPUs, serving.GPUConfig{ID: i, Est: est})
	}
	return &Cluster{cfg: cfg, sim: sim, engine: ecfg}, nil
}

// Size returns the number of GPUs in the cluster.
func (c *Cluster) Size() int { return len(c.sim.GPUs) }

// GPUMethods returns the per-GPU method names in cluster order.
func (c *Cluster) GPUMethods() []string {
	out := make([]string, len(c.sim.GPUs))
	for i, g := range c.sim.GPUs {
		out[i] = g.Est.Method.Name
	}
	return out
}

// ServeTrace serves the request trace behind the router and returns
// per-request outcomes sorted by request ID. By default it runs the
// discrete-event simulation against the analytical cost model in virtual
// time; a cluster built WithRealEngine replays the same trace through real
// continuous-batching engines (tiny-model decode over paged KV, one engine
// per GPU) in wall-clock time — one metrics vocabulary, two backends.
func (c *Cluster) ServeTrace(reqs []Request, r Router) ([]Outcome, error) {
	// A named policy carries its cluster's predictor suite: reject a router
	// built for a different cluster rather than silently misrouting.
	if nr, ok := r.(*namedRouter); ok && nr.c != c {
		return nil, fmt.Errorf("rethinkkv: router %q belongs to a different cluster", r.Name())
	}
	if c.cfg.realEngine {
		return c.serveTraceReal(reqs, r)
	}
	out, err := c.sim.Run(reqs, r)
	if err != nil {
		return nil, fmt.Errorf("rethinkkv: %w", err)
	}
	return out, nil
}

// serveTraceReal replays the trace through the fleet subsystem: one
// continuous-batching engine per GPU behind the router, with live views and
// (by default) cross-engine migration of preemption victims — the same pool
// NewFleet serves live traffic with. Arrivals are honoured in wall-clock
// time (the replay sleeps until each request's ArrivalTime); prompts are
// synthesised deterministically from the cluster seed at each request's
// PromptLen, and responses are capped at WithMaxNewTokens so tiny-model
// replay stays tractable. All engines decode the full-precision paged data
// plane; the per-GPU method names still flow to the router. A router that
// returns an out-of-range index fails the replay with ErrBadRoute.
func (c *Cluster) serveTraceReal(reqs []Request, r Router) ([]Outcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	m := engineModel(c.cfg)
	vocab := m.Config().Vocab
	maxPrompt := m.Config().MaxSeq - c.cfg.maxNew
	if maxPrompt < 1 {
		return nil, fmt.Errorf("%w: max new tokens %d leave no prompt room within the model's %d-token context",
			ErrInvalidOption, c.cfg.maxNew, m.Config().MaxSeq)
	}
	// One shared clock origin for every engine and the replay itself, so
	// arrivals and outcome timestamps are comparable across GPUs.
	epoch := time.Now()
	ecfg := c.engine
	ecfg.Epoch = epoch
	pool, err := fleet.New(m, fleet.Config{
		Engines: len(c.sim.GPUs),
		Methods: c.GPUMethods(),
		Router:  r,
		Engine:  ecfg,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	ordered := append([]Request(nil), reqs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ArrivalTime < ordered[j].ArrivalTime })
	for _, req := range ordered {
		if wait := req.ArrivalTime - time.Since(epoch).Seconds(); wait > 0 {
			time.Sleep(time.Duration(wait * float64(time.Second)))
		}
		maxNew := min(max(req.RefLen, 1), c.cfg.maxNew)
		var dl float64 // WithAdmissionTimeout, counted from the trace's arrival
		if t := c.cfg.admissionTimeout; t > 0 {
			dl = req.ArrivalTime + t.Seconds()
		}
		if _, err := pool.Submit(context.Background(), sched.Request{
			ID:        req.ID,
			Prompt:    tracePrompt(req, c.cfg.seed, vocab, maxPrompt),
			MaxNew:    maxNew,
			Predicted: maxNew,
			Arrival:   req.ArrivalTime,
			Deadline:  dl,
		}); err != nil {
			return nil, fmt.Errorf("request %d: %w", req.ID, err)
		}
	}
	if err := pool.Drain(context.Background()); err != nil {
		return nil, err
	}
	return pool.Outcomes(), nil
}

// tracePrompt synthesises the deterministic token sequence standing in for
// a trace request's prompt (traces carry lengths, not tokens).
func tracePrompt(req Request, seed uint64, vocab, maxLen int) []int {
	n := min(max(req.PromptLen, 1), maxLen)
	r := rng.New(seed ^ (uint64(req.ID)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03))
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = r.Intn(vocab)
	}
	return prompt
}

// Router returns one of the paper's four routing policies — or the
// live-only kv-pressure policy — by name (see Routers() and
// FleetRouters()). Predictor-driven policies train a throughput and length
// predictor per distinct cluster method on first use; the trained suite is
// cached on the cluster. Length routing is strict here (no hysteresis band):
// that is the paper's queue-blind Table 8 measurement.
func (c *Cluster) Router(name string) (Router, error) {
	inner, err := routerFor(name, 0, func() (router.Predictors, error) { return c.predictors(), nil })
	if err != nil {
		return nil, err
	}
	return &namedRouter{Router: inner, c: c}, nil
}

// routerFor resolves a routing policy name for Cluster.Router and NewFleet.
// preds trains the predictor suite and is called only for the policies that
// consult one; hysteresis is with-length's tie band.
func routerFor(name string, hysteresis float64, preds func() (router.Predictors, error)) (serving.Router, error) {
	switch name {
	case RouterBaseline:
		return router.Baseline{}, nil
	case RouterWithThroughput, RouterWithLength, RouterWithBoth, RouterKVPressure:
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownRouter, name)
	}
	p, err := preds()
	if err != nil {
		return nil, err
	}
	switch name {
	case RouterWithThroughput:
		return router.WithThroughput{P: p}, nil
	case RouterWithLength:
		return router.WithLength{P: p, Hysteresis: hysteresis}, nil
	case RouterWithBoth:
		return router.WithBoth{P: p}, nil
	default:
		return router.KVPressure{P: &p}, nil
	}
}

// predictors lazily trains the predictor suite over the cluster's GPUs.
// Safe for concurrent Router calls.
func (c *Cluster) predictors() router.Predictors {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.preds == nil {
		ests := make([]*perf.Estimator, len(c.sim.GPUs))
		for i, g := range c.sim.GPUs {
			ests[i] = g.Est
		}
		train := workload.SampleShareGPT(workload.DefaultShareGPT(2000), c.cfg.seed)
		p := router.Train(train, c.sim.LM, ests, c.cfg.seed, c.cfg.seed+7)
		c.preds = &p
	}
	return *c.preds
}

// namedRouter is a paper policy bound to the cluster whose predictor suite
// it consults; ServeTrace rejects it on any other cluster. Wrapped, it
// still routes from the views alone.
type namedRouter struct {
	Router
	c *Cluster
}

// ShareGPTTrace draws a deterministic ShareGPT-like request trace of n
// requests. rps > 0 adds Poisson arrival times at that rate; rps == 0 gives
// a closed-loop trace (all arrivals at time zero).
func ShareGPTTrace(n int, rps float64, seed uint64) []Request {
	cfg := workload.DefaultShareGPT(n)
	cfg.RPS = rps
	return workload.SampleShareGPT(cfg, seed)
}

// MeanE2E returns the average end-to-end latency of a run — the paper's
// Table 8 cell value.
func MeanE2E(outcomes []Outcome) float64 { return serving.MeanE2E(outcomes) }

// E2Es extracts per-request end-to-end latencies (Figure 5's CDF input).
func E2Es(outcomes []Outcome) []float64 { return serving.E2Es(outcomes) }
