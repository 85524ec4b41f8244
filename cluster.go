package rethinkkv

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/fleet"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/predictor"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/router"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/stats"
	"rethinkkv/internal/workload"
)

// Request is one ShareGPT-like serving request (ID, prompt length, reference
// response length, arrival time).
type Request = workload.Request

// Outcome is one served request: its GPU, realised response length, and the
// batch timing from which E2E, TTFT, and TBOT derive.
type Outcome = serving.Outcome

// GPUView is the router-visible state of one GPU at routing time.
//
// The first block of fields is populated by every backend. The live block
// below it is sampled from real continuous-batching engines only (Fleet,
// and ServeTrace under WithRealEngine); the discrete-event simulator has no
// paged cache or chunked prefill and leaves those fields zero, so custom
// routers must treat PageBudget == 0 as "unbounded / unknown".
type GPUView struct {
	// ID is the GPU's position in the cluster.
	ID int
	// Method is the compression method the GPU runs.
	Method string
	// FreeAt is when the GPU finishes all committed work, seconds.
	FreeAt float64
	// QueuedTokens is the backlog in (prompt + expected response) tokens.
	QueuedTokens float64
	// Now is the decision timestamp, seconds.
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
	// engine's in-flight chunked-prefill debt ahead of any new arrival.
	PrefillTokens int
}

// Wait returns the expected queueing delay before new work starts.
func (v GPUView) Wait() float64 {
	if w := v.FreeAt - v.Now; w > 0 {
		return w
	}
	return 0
}

// Router assigns each arriving request to a GPU index. Implement it for
// custom policies, or obtain one of the paper's four policies from
// Cluster.Router. Returning an index outside [0, len(views)) makes
// ServeTrace fail with an error.
type Router interface {
	Name() string
	Route(req Request, views []GPUView) int
}

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
// WithHardware, WithModel, WithEngine, WithTP, WithBatchCap, WithSeed.
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
		m, err := resolveMethod(name)
		if err != nil {
			return nil, err
		}
		est, err := newEstimator(cfg, name)
		if err != nil {
			return nil, err
		}
		sim.GPUs = append(sim.GPUs, serving.GPUConfig{ID: i, Method: m, Est: est})
	}
	return &Cluster{cfg: cfg, sim: sim, engine: ecfg}, nil
}

// Size returns the number of GPUs in the cluster.
func (c *Cluster) Size() int { return len(c.sim.GPUs) }

// GPUMethods returns the per-GPU method names in cluster order.
func (c *Cluster) GPUMethods() []string {
	out := make([]string, len(c.sim.GPUs))
	for i, g := range c.sim.GPUs {
		out[i] = g.Method.Name
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
	if c.cfg.realEngine {
		return c.serveTraceReal(reqs, r)
	}
	inner := serving.Router(routerAdapter{r})
	if nr, ok := r.(*namedRouter); ok {
		// A named policy carries its cluster's estimators: reject a router
		// built for a different fleet rather than silently misrouting, and
		// skip the view round-trip for a matching one.
		if nr.c != c {
			return nil, fmt.Errorf("rethinkkv: router %q belongs to a different cluster", r.Name())
		}
		inner = nr.inner
	}
	out, err := c.sim.Run(reqs, inner)
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
	inner := serving.Router(routerAdapter{r})
	if nr, ok := r.(*namedRouter); ok {
		// As on the simulator path: reject a policy trained for a different
		// cluster, and skip the public-view round-trip for a matching one.
		if nr.c != c {
			return nil, fmt.Errorf("rethinkkv: router %q belongs to a different cluster", r.Name())
		}
		inner = nr.inner
	}
	methods := make([]compress.Method, len(c.sim.GPUs))
	for i, g := range c.sim.GPUs {
		methods[i] = g.Method
	}
	// One shared clock origin for every engine and the replay itself, so
	// arrivals and outcome timestamps are comparable across GPUs.
	epoch := time.Now()
	ecfg := c.engine
	ecfg.Epoch = epoch
	pool, err := fleet.New(m, fleet.Config{
		Engines: len(c.sim.GPUs),
		Methods: methods,
		Router:  inner,
		Migrate: c.cfg.migrate,
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
		maxNew := stats.MinI(stats.MaxI(req.RefLen, 1), c.cfg.maxNew)
		if _, err := pool.Submit(context.Background(), sched.Request{
			ID:        req.ID,
			Prompt:    tracePrompt(req, c.cfg.seed, vocab, maxPrompt),
			MaxNew:    maxNew,
			Predicted: maxNew,
			Arrival:   req.ArrivalTime,
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
	n := stats.MinI(stats.MaxI(req.PromptLen, 1), maxLen)
	r := rng.New(seed ^ (uint64(req.ID)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03))
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = r.Intn(vocab)
	}
	return prompt
}

// routerAdapter drives a public Router from an internal backend (the
// discrete-event simulator or the live fleet pool).
type routerAdapter struct{ r Router }

func (a routerAdapter) Name() string { return a.r.Name() }

func (a routerAdapter) Route(req workload.Request, views []serving.GPUView) int {
	return a.r.Route(req, publicViews(views))
}

// publicViews converts internal router views to their public form — the one
// conversion point every backend that drives a public Router shares, so the
// simulator's and the fleet's view vocabularies cannot drift.
func publicViews(views []serving.GPUView) []GPUView {
	pub := make([]GPUView, len(views))
	for i, v := range views {
		pub[i] = GPUView{
			ID: v.ID, Method: v.Method.Name,
			FreeAt: v.FreeAt, QueuedTokens: v.QueuedTokens, Now: v.Now,
			Running: v.Running, FreePages: v.FreePages, PageBudget: v.PageBudget,
			PageTokens: v.PageTokens, PrefillTokens: v.PrefillTokens,
		}
	}
	return pub
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
	return &namedRouter{c: c, inner: inner}, nil
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
		p := trainPredictors(c.cfg.seed, c.sim.LM, c.sim.GPUs)
		c.preds = &p
	}
	return *c.preds
}

// trainPredictors trains the suite the predictor-driven policies consult,
// mirroring the paper's Section 5 tooling: one throughput predictor (over
// the GPU's estimator) and one length predictor (over the length model's
// generations on a ShareGPT-like trace) per distinct method among gpus.
func trainPredictors(seed uint64, lm gen.LengthModel, gpus []serving.GPUConfig) router.Predictors {
	salt := seed + 7
	p := router.Predictors{
		Thr:  map[string]*predictor.ThroughputPredictor{},
		Len:  map[string]*predictor.LengthPredictor{},
		Salt: salt,
	}
	train := workload.SampleShareGPT(workload.DefaultShareGPT(2000), seed)
	for _, g := range gpus {
		m := g.Method
		if _, done := p.Thr[m.Name]; done {
			continue
		}
		p.Thr[m.Name] = predictor.TrainThroughput(g.Est, predictor.DefaultGrid(), seed+2)
		p.Len[m.Name] = predictor.TrainLength(train, lm.Run(train, m, seed+3), m, salt)
	}
	return p
}

// namedRouter is a paper policy bound to its cluster. It satisfies the
// public Router interface by rebuilding the internal views from the public
// ones: the method comes from the view itself (so a wrapped router still
// routes correctly on a foreign fleet), and the cluster's estimator is
// attached only when the view provably describes this cluster's GPU.
type namedRouter struct {
	c     *Cluster
	inner serving.Router
}

func (r *namedRouter) Name() string { return r.inner.Name() }

func (r *namedRouter) Route(req Request, views []GPUView) int {
	iv := make([]serving.GPUView, len(views))
	for i, v := range views {
		iv[i] = serving.GPUView{
			FreeAt: v.FreeAt, QueuedTokens: v.QueuedTokens, Now: v.Now, ID: v.ID,
			Running: v.Running, FreePages: v.FreePages, PageBudget: v.PageBudget,
			PageTokens: v.PageTokens, PrefillTokens: v.PrefillTokens,
		}
		if m, err := compress.Get(v.Method); err == nil {
			iv[i].Method = m
		}
		if v.ID >= 0 && v.ID < len(r.c.sim.GPUs) && r.c.sim.GPUs[v.ID].Method.Name == v.Method {
			iv[i].Est = r.c.sim.GPUs[v.ID].Est
		}
	}
	return r.inner.Route(req, iv)
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
