// Package fleet is the multi-engine serving layer: N independent
// continuous-batching engines (internal/sched) behind a live router, plus
// cross-engine handoff of preemption victims and of a failed engine's
// requests.
//
// Where internal/serving routes simulated requests over the analytical cost
// model and a single sched.Engine serves one replica, a Pool serves live
// traffic across replicas: every Submit samples a fresh serving.GPUView per
// engine from real engine state (backlog tokens, running-batch size, free
// KV pages, in-flight chunked-prefill debt, measured step time) and asks
// the router to place the request. The same router policies that ran only
// inside the discrete-event simulator therefore make their decisions on
// wall-clock signals here — one Router contract, three backends.
//
// A request belongs to one engine at a time. Submit returns that engine's
// own channel, and the engine keeps the request's record. Moving it is the
// engines' sched.Config.Handoff hook, which the pool implements: an engine
// offers it every preemption victim, and every request it held once its
// scheduling loop panicked, and the pool resumes the request on another
// engine (sched.Engine.Resume). The stream, the tokens already sent and the
// record move with it; the target recomputes the prompt and the sent tokens
// through its bit-identical recompute plane, so the stream goes on
// byte-identical to an unmoved run and a hop costs only time.
//
// Migration takes a victim when another engine has page headroom for its
// whole lifetime. Failover is the same move out of a failed engine: the
// engine's recover boundary marks it failed (sched.ErrEngineFailed), the
// pool quarantines it — Submit stops offering it to the router and no hop
// targets it — and offers each of its requests to the healthy engines with
// the most free pages first. A request that has ridden out maxFailovers
// failures, or that no healthy engine takes, ends on the failed engine's
// error token instead of hanging. The pool starts no goroutine and keeps no
// per-request state: its outcomes are the engines' records.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rethinkkv/internal/faults"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// ErrBadRoute reports a router that returned an engine index outside
// [0, engines) — the live counterpart of the simulator's invalid-GPU error.
var ErrBadRoute = errors.New("fleet: router returned an out-of-range engine index")

// Config sizes a Pool.
type Config struct {
	// Engines is the replica count (>= 1).
	Engines int
	// Methods labels each engine's router-visible compression method by
	// name (trace replay runs heterogeneous labels over the same fp16 data
	// plane, exactly like the simulator). Empty entries and a short or nil
	// slice default to "fp16".
	Methods []string
	// Router places each submitted request; required.
	Router serving.Router
	// Engine is the per-replica scheduler configuration. Epoch and Handoff
	// are owned by the pool and overwritten.
	Engine sched.Config
	// Faults, when non-nil, threads the deterministic fault-injection
	// harness into every replica: engine i runs with the injector's
	// StepHook(i)/SubmitHook(i) in its scheduler config, so failure
	// scenarios can kill, storm or slow a chosen engine at exact points
	// in its event stream. Nil outside tests.
	Faults *faults.Injector
}

// Stats is a snapshot of pool-lifetime counters: per-engine scheduler stats
// plus the routing, migration and failover counters only the multi-engine
// layer has. The facade exports the type unchanged as rethinkkv.FleetStats.
type Stats struct {
	// Engines holds each replica's scheduler counters, pool order.
	Engines []sched.Stats
	// Routed counts router placements per engine (migration hops are not
	// router decisions and are counted separately).
	Routed []int
	// Migrations counts preemption victims resumed on another engine.
	Migrations int
	// MigrationFailed counts migrations whose chosen target refused the
	// victim (sched.Engine.Resume failed); the victim was then requeued on
	// its own engine rather than dropped.
	MigrationFailed int
	// FailedOver counts requests moved off a failed engine and resumed
	// elsewhere by recompute.
	FailedOver int
	// EngineFailures counts quarantined engines (scheduling loop
	// panicked; Engine.Failed() != nil).
	EngineFailures int
}

// Pool runs N scheduling engines over one shared model behind a router.
type Pool struct {
	cfg     Config
	engines []*sched.Engine
	methods []string
	epoch   time.Time

	mu              sync.Mutex
	routed          []int
	migrations      int
	migrationFailed int
	failedOver      int
}

// New starts a pool of cfg.Engines schedulers over the model (weights are
// shared and immutable across engines). All engines share one clock epoch,
// so views and outcomes are comparable across replicas.
func New(m *model.Model, cfg Config) (*Pool, error) {
	if cfg.Engines <= 0 {
		return nil, fmt.Errorf("fleet: need at least one engine, got %d", cfg.Engines)
	}
	if cfg.Router == nil {
		return nil, fmt.Errorf("fleet: nil router")
	}
	epoch := cfg.Engine.Epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}
	p := &Pool{
		cfg:     cfg,
		methods: make([]string, cfg.Engines),
		epoch:   epoch,
		routed:  make([]int, cfg.Engines),
	}
	for i := range p.methods {
		if i < len(cfg.Methods) && cfg.Methods[i] != "" {
			p.methods[i] = cfg.Methods[i]
		} else {
			p.methods[i] = "fp16"
		}
	}
	for i := 0; i < cfg.Engines; i++ {
		ecfg := cfg.Engine
		ecfg.Epoch = epoch
		ecfg.Handoff = nil
		if cfg.Engines > 1 {
			ecfg.Handoff = func(h *sched.Handle) { p.handoff(i, h) }
		}
		if cfg.Faults != nil {
			ecfg.StepHook = cfg.Faults.StepHook(i)
			ecfg.SubmitHook = cfg.Faults.SubmitHook(i)
		}
		eng, err := sched.New(m, ecfg)
		if err != nil {
			for _, prev := range p.engines {
				prev.Close()
			}
			return nil, err
		}
		p.engines = append(p.engines, eng)
	}
	return p, nil
}

// Size returns the engine count.
func (p *Pool) Size() int { return len(p.engines) }

// now returns seconds since the pool epoch.
func (p *Pool) now() float64 { return time.Since(p.epoch).Seconds() }

// Now is the public form of the pool clock — the origin Request.Arrival
// and Request.Deadline are measured against, shared by every engine.
func (p *Pool) Now() float64 { return p.now() }

// Views samples every engine's live state into router-visible GPU views.
// FreeAt approximates the committed-work horizon from the backlog and the
// engine's measured per-iteration step time, so wait-sensitive policies
// (w/throughput, w/both) see a live queueing-delay estimate instead of the
// simulator's analytical one.
func (p *Pool) Views(now float64) []serving.GPUView {
	out := make([]serving.GPUView, len(p.engines))
	for i, e := range p.engines {
		v := e.View()
		gv := serving.GPUView{
			ID:            i,
			Method:        p.methods[i],
			FreeAt:        now,
			QueuedTokens:  v.BacklogTokens,
			Now:           now,
			Running:       v.Running,
			FreePages:     v.FreePages(),
			PageBudget:    v.PageBudget,
			PageTokens:    v.PageTokens,
			PrefillTokens: v.PrefillTokens,
		}
		if v.StepSeconds > 0 && v.BacklogTokens > 0 {
			width := v.Running
			if width < 1 {
				width = 1
			}
			gv.FreeAt = now + v.BacklogTokens/float64(width)*v.StepSeconds
		}
		out[i] = gv
	}
	return out
}

// healthyViews filters the live views down to engines the router may still
// be offered: quarantined replicas (Failed() != nil) disappear from the
// routing surface entirely. Each view's ID stays the engine's real pool
// index, so a router's slice-index choice maps back unambiguously.
func (p *Pool) healthyViews(now float64) []serving.GPUView {
	all := p.Views(now)
	out := all[:0:0]
	for i, v := range all {
		if p.engines[i].Failed() == nil {
			out = append(out, v)
		}
	}
	return out
}

// Submit routes a request onto a healthy engine and returns its token
// stream: the engine's own channel, buffered to the request's full budget
// (plus one slot for a terminal error token). It closes when the request
// completes, is shed or failed past recovery (the final token carries Err),
// ctx is cancelled, or the pool shuts down; migrations and failovers are
// invisible on it beyond the recompute delay. A router return outside the
// offered views fails with ErrBadRoute, mirroring the simulator's treatment
// of invalid routes; a fleet with every engine quarantined fails with
// sched.ErrEngineFailed.
func (p *Pool) Submit(ctx context.Context, req sched.Request) (<-chan sched.Token, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("fleet: empty prompt")
	}
	if req.MaxNew <= 0 {
		req.MaxNew = p.engines[0].Config().MaxNew
	}
	if req.Arrival < 0 {
		req.Arrival = p.now()
	}
	if req.Predicted <= 0 {
		req.Predicted = req.MaxNew
	}
	// The router sees the request in the same vocabulary the simulator and
	// the predictors were trained on: lengths plus the predicted-response
	// hint in RefLen — and only the healthy slice of the fleet.
	views := p.healthyViews(p.now())
	if len(views) == 0 {
		return nil, fmt.Errorf("%w: all %d engines quarantined", sched.ErrEngineFailed, len(p.engines))
	}
	gi := p.cfg.Router.Route(workload.Request{
		ID: req.ID, PromptLen: len(req.Prompt), RefLen: req.Predicted, ArrivalTime: req.Arrival,
	}, views)
	if gi < 0 || gi >= len(views) {
		return nil, fmt.Errorf("%w: router %s chose %d of %d healthy engines",
			ErrBadRoute, p.cfg.Router.Name(), gi, len(views))
	}
	gi = views[gi].ID
	ch, err := p.engines[gi].Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.routed[gi]++
	p.mu.Unlock()
	return ch, nil
}

// maxFailovers caps how many engine failures a single request may ride out
// before the pool stops re-homing it and lets its stream end on the error
// token — a rolling blackout must not pin a request (and its recomputed
// prefill work) in an endless resubmit loop.
const maxFailovers = 3

// handoff is engine src's sched.Config.Handoff hook: src is giving up the
// request h, a preemption victim or, once src has failed, one it held. A
// request the pool does not resume stays with src, which requeues a victim
// and ends a failed engine's request.
func (p *Pool) handoff(src int, h *sched.Handle) {
	if p.engines[src].Failed() != nil {
		p.failover(src, h)
	} else {
		p.migrate(src, h)
	}
}

// migrate resumes a preemption victim on the healthy engine with the most
// free pages among those with headroom for its entire lifetime
// (sched.Engine.LifetimePages, the rule Resume admits by) — anything less and
// the target could immediately preempt it back, so a local requeue-and-wait
// is at least as good. One attempt: a refusal counts as MigrationFailed.
func (p *Pool) migrate(src int, h *sched.Handle) {
	for _, t := range p.targets(src) {
		e := p.engines[t.i]
		if t.free < e.LifetimePages(h.Request()) {
			continue
		}
		err := e.Resume(h)
		p.mu.Lock()
		if err != nil {
			p.migrationFailed++
		} else {
			p.migrations++
		}
		p.mu.Unlock()
		return
	}
}

// failover resumes a failed engine's request on the first healthy engine, by
// free pages, that takes it; a request past maxFailovers is refused.
func (p *Pool) failover(src int, h *sched.Handle) {
	if h.Failovers() > maxFailovers {
		return
	}
	for _, t := range p.targets(src) {
		if p.engines[t.i].Resume(h) == nil {
			p.mu.Lock()
			p.failedOver++
			p.mu.Unlock()
			return
		}
	}
}

// target is a healthy engine a handoff may resume on, with its free pages.
type target struct{ i, free int }

// targets returns the healthy engines other than src, most free pages first
// (an unbounded engine counting as the most), lower index first on a tie.
func (p *Pool) targets(src int) []target {
	var out []target
	for i, e := range p.engines {
		if i == src || e.Failed() != nil {
			continue
		}
		free := e.View().FreePages()
		if free < 0 {
			free = math.MaxInt
		}
		out = append(out, target{i, free})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].free > out[b].free })
	return out
}

// handoffs counts the requests the pool has moved between engines.
func (p *Pool) handoffs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.migrations + p.failedOver
}

// Drain blocks until every request submitted so far has retired, or ctx is
// cancelled. It drains every engine in turn — a failed one once each request
// it held has moved or ended — and passes again while a pass saw a request
// move, since a hop may land on an engine the pass already drained. After
// Close it reports sched.ErrClosed, matching the engine contract.
func (p *Pool) Drain(ctx context.Context) error {
	for {
		moved := p.handoffs()
		for _, e := range p.engines {
			if err := e.Drain(ctx); err != nil && !errors.Is(err, sched.ErrEngineFailed) {
				return err
			}
		}
		if p.handoffs() == moved {
			return nil
		}
	}
}

// Close shuts every engine down. In-flight streams close without
// completing. Idempotent.
func (p *Pool) Close() {
	for _, e := range p.engines {
		e.Close()
	}
}

// Outcomes returns every engine's records of the requests retired so far,
// each stamped with the engine that retired it and sorted by request ID —
// the same vocabulary the simulator and the single-engine scheduler emit,
// measured against the shared pool epoch. A request records once, where it
// retired: Start is its first admission on any engine and Preemptions counts
// its restarts across engines, each preemption and each failover hop.
func (p *Pool) Outcomes() []serving.Outcome {
	var out []serving.Outcome
	for i, e := range p.engines {
		for _, o := range e.Outcomes() {
			o.GPU = i
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Req.ID < out[j].Req.ID })
	return out
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	st := Stats{
		Routed:          append([]int(nil), p.routed...),
		Migrations:      p.migrations,
		MigrationFailed: p.migrationFailed,
		FailedOver:      p.failedOver,
	}
	p.mu.Unlock()
	st.Engines = make([]sched.Stats, len(p.engines))
	for i, e := range p.engines {
		st.Engines[i] = e.Stats()
		if e.Failed() != nil {
			st.EngineFailures++
		}
	}
	return st
}
