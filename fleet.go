package rethinkkv

import (
	"context"

	"rethinkkv/internal/fleet"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/router"
	"rethinkkv/internal/workload"
)

// Fleet is a multi-engine serving cluster over real continuous-batching
// engines: N independent schedulers (each a full Server engine — paged KV,
// chunked prefill, preemption) behind a live router that places every
// submitted request on fresh per-engine views (backlog, running batch,
// free KV pages, in-flight prefill debt, measured step time). It is the
// live-traffic counterpart of the simulated Cluster and the multi-box
// counterpart of Server: one Submit/Drain/Outcomes/Stats surface, three
// backends, one Outcome metrics vocabulary.
//
// A request lives on one engine at a time, and its stream is that engine's
// channel. When an engine preempts a request under KV page pressure and
// another engine has headroom for its whole remaining lifetime, the fleet
// migrates it: the live request — stream, sent tokens and record — moves to
// the target, whose bit-identical recompute plane rebuilds its cache from the
// prompt plus the sent tokens, so the caller's stream goes on byte-identical
// to an unmigrated run; migration only costs time, which the wall-clock
// Outcomes expose. A victim no engine has that headroom for requeues on its
// own engine, as on a standalone Server.
//
// The fleet is also a failure domain boundary: an engine whose scheduling
// loop panics is quarantined (the router stops seeing it) and the requests
// it held fail over to healthy engines by the same move, so a single replica
// crash costs recompute time, not answers. Overload is
// handled at admission — WithMaxQueue bounds each engine's queue
// (ErrOverloaded) and WithAdmissionTimeout / ServeRequest.Deadline shed
// queued requests that can no longer meet their TTFT SLO.
type Fleet struct {
	front frontend
	pool  *fleet.Pool
	name  string
}

// FleetStats snapshots the fleet counters — the pool's own type: each
// engine's ServerStats in fleet order, plus the routing, migration and
// failover counters only the multi-engine layer has.
type FleetStats = fleet.Stats

// NewFleet starts n continuous-batching engines behind the routing policy
// selected by WithRouter (default baseline; see FleetRouters()). Every
// engine is sized by the same options as NewServer — whatever engineConfig
// reads — so the page budget is per engine and a fleet holds n× the KV of
// one Server. Close the fleet when done.
func NewFleet(n int, opts ...Option) (*Fleet, error) {
	if n <= 0 {
		return nil, ErrEmptyFleet
	}
	cfg := buildConfig(opts)
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	// The engines all decode the full-precision data plane, so the
	// predictor-driven policies consult one fp16 suite — and strict length
	// routing would predict identical lengths everywhere and herd every burst
	// onto engine 0: a hysteresis band breaks those ties on live load.
	r, err := routerFor(cfg.routerName, 0.1, func() (router.Predictors, error) {
		est, err := newEstimator(cfg, "fp16")
		if err != nil {
			return router.Predictors{}, err
		}
		train := workload.SampleShareGPT(workload.DefaultShareGPT(2000), cfg.seed)
		return router.Train(train, gen.Default(), []*perf.Estimator{est}, cfg.seed, cfg.seed+7), nil
	})
	if err != nil {
		return nil, err
	}
	fcfg := fleet.Config{
		Engines: n,
		Router:  r,
		Engine:  ecfg,
	}
	if cfg.faults != nil {
		fcfg.Faults = buildInjector(cfg.faults)
	}
	m := engineModel(cfg)
	pool, err := fleet.New(m, fcfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{
		front: frontend{vocab: m.Config().Vocab, timeout: cfg.admissionTimeout, now: pool.Now, enqueue: pool.Submit},
		pool:  pool,
		name:  r.Name(),
	}, nil
}

// Size returns the engine count.
func (f *Fleet) Size() int { return f.pool.Size() }

// RouterName returns the active routing policy's name.
func (f *Fleet) RouterName() string { return f.name }

// Vocab returns the served model's vocabulary size.
func (f *Fleet) Vocab() int { return f.front.vocab }

// Submit routes a request onto an engine and returns its token stream —
// the same contract as Server.Submit, and the engine's own channel. The
// router's placement runs on live engine views sampled at this call; a
// policy that returns an out-of-range engine index fails with ErrBadRoute.
// Migration and failover hops, if any, are invisible on the stream beyond
// their recompute delay.
func (f *Fleet) Submit(ctx context.Context, req ServeRequest) (<-chan Token, error) {
	return f.front.Submit(ctx, req)
}

// Drain blocks until every request submitted so far has retired across the
// whole fleet — wherever migration and failover hops took it — or ctx is
// cancelled.
func (f *Fleet) Drain(ctx context.Context) error {
	return f.pool.Drain(ctx)
}

// Close shuts every engine down; in-flight streams close without
// completing. Idempotent.
func (f *Fleet) Close() { f.pool.Close() }

// Outcomes returns the engines' per-request records, sorted by request ID:
// wall-clock TTFT/TBOT/E2E as the client saw them (queueing and migration
// delays included), GPU = the engine that retired the request, Start = its
// first admission on any engine and Preemptions = its restarts on every
// engine, each preemption plus each failover hop — what a Server outcome
// means by them. A request that failed past recovery records none.
func (f *Fleet) Outcomes() []Outcome { return f.pool.Outcomes() }

// Stats returns a snapshot of the fleet counters.
func (f *Fleet) Stats() FleetStats { return f.pool.Stats() }
