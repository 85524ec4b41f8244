// Package fleet is the multi-engine serving layer: N independent
// continuous-batching engines (internal/sched) behind a live router, plus
// cross-engine migration of preemption victims.
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
// The pool is also the fleet's failure domain boundary. An engine whose
// scheduling loop panics is marked failed by its own recover boundary
// (sched.ErrEngineFailed) and quarantined here: Submit stops offering it to
// the router, the preemption hook stops choosing it as a migration target,
// and every request it was holding is failed over to a healthy replica
// through the same serialize-and-replay path migration uses — so recovery
// is bit-identical recompute, not approximation. A request that exhausts
// its failover budget, or finds no healthy engine, terminates its stream
// locally with an error token wrapping the cause instead of hanging.
//
// Migration uses the cheap path: when an engine preempts a request and
// another engine has page headroom for its whole remaining lifetime, the
// request is serialized as prompt + already-emitted tokens and re-admitted
// there. The target rebuilds the KV cache through the engines' bit-identical
// recompute plane, so a migrated stream is byte-identical to an unmigrated
// one; migration only costs time, which the pool's wall-clock Outcomes
// expose. The pool owns the caller-facing token stream: a per-request
// forwarder goroutine splices the per-engine streams together and remaps
// token positions, so callers never observe the hop.
package fleet

import (
	"context"
	"errors"
	"fmt"
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
	// Migrate enables cross-engine re-admission of preemption victims.
	// It only takes effect with Engines > 1 and a bounded page budget
	// (unbounded engines never preempt).
	Migrate bool
	// Engine is the per-replica scheduler configuration. Epoch and Migrate
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
	// Migrations counts completed cross-engine re-admissions.
	Migrations int
	// MigrationFailed counts migration handoffs whose hook-chosen target
	// rejected the re-Submit; the request was then requeued on its source
	// engine (or another healthy replica) rather than dropped.
	MigrationFailed int
	// FailedOver counts failure-driven re-homings: in-flight requests
	// moved off a failed engine and resumed elsewhere via replay.
	FailedOver int
	// EngineFailures counts quarantined engines (scheduling loop
	// panicked; Engine.Failed() != nil).
	EngineFailures int
}

// flight is one request's pool-level lifecycle. The forwarder goroutine
// owns every field except migrateTo, which the migration hook writes under
// the pool lock.
type flight struct {
	key       int // engine-visible request id, unique per pool
	id        int // caller's request id, stamped on the outcome
	prompt    []int
	maxNew    int
	predicted int
	arrival   float64
	deadline  float64 // absolute TTFT deadline on the pool clock, 0 = none
	start     float64
	firstTok  float64
	ctx       context.Context
	out       chan sched.Token
	generated []int
	engine    int // engine currently serving the request
	hops      int // completed migrations
	failovers int // failure-driven re-homings consumed (capped)
	// migrateTo is the hook-chosen re-admission target, -1 when the next
	// stream close means retirement rather than migration.
	migrateTo int
}

// Pool runs N scheduling engines over one shared model behind a router.
type Pool struct {
	cfg     Config
	engines []*sched.Engine
	methods []string
	epoch   time.Time

	mu              sync.Mutex
	flights         map[int]*flight
	outcomes        []serving.Outcome
	routed          []int
	migrations      int
	migrationFailed int
	failedOver      int
	nextKey         int
	pending         int
	waiters         []chan struct{}
	closed          bool
	aborted         bool
	wg              sync.WaitGroup
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
		flights: map[int]*flight{},
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
		ecfg.Migrate = nil
		if cfg.Migrate && cfg.Engines > 1 {
			ecfg.Migrate = func(req sched.Request, generated int) bool { return p.onPreempt(i, req, generated) }
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
// stream. The channel is buffered to the request's full budget (plus one
// slot for a terminal error token) and closes when the request completes,
// is shed or failed past recovery (the final token carries Err), ctx is
// cancelled, or the pool shuts down; cross-engine migrations and failovers
// are invisible on it beyond the recompute delay. A router return outside
// the offered views fails with ErrBadRoute, mirroring the simulator's
// treatment of invalid routes; a fleet with every engine quarantined fails
// with sched.ErrEngineFailed.
func (p *Pool) Submit(ctx context.Context, req sched.Request) (<-chan sched.Token, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("fleet: empty prompt")
	}
	if req.MaxNew <= 0 {
		req.MaxNew = p.engines[0].Config().MaxNew
	}
	if ctx == nil {
		ctx = context.Background()
	}
	now := p.now()
	if req.Arrival < 0 {
		req.Arrival = now
	}
	pred := req.Predicted
	if pred <= 0 {
		pred = req.MaxNew
	}
	// The router sees the request in the same vocabulary the simulator and
	// the predictors were trained on: lengths plus the predicted-response
	// hint in RefLen — and only the healthy slice of the fleet.
	views := p.healthyViews(now)
	if len(views) == 0 {
		return nil, fmt.Errorf("%w: all %d engines quarantined", sched.ErrEngineFailed, len(p.engines))
	}
	gi := p.cfg.Router.Route(workload.Request{
		ID: req.ID, PromptLen: len(req.Prompt), RefLen: pred, ArrivalTime: req.Arrival,
	}, views)
	if gi < 0 || gi >= len(views) {
		return nil, fmt.Errorf("%w: router %s chose %d of %d healthy engines",
			ErrBadRoute, p.cfg.Router.Name(), gi, len(views))
	}
	gi = views[gi].ID

	f := &flight{
		id:        req.ID,
		prompt:    req.Prompt,
		maxNew:    req.MaxNew,
		predicted: pred,
		arrival:   req.Arrival,
		deadline:  req.Deadline,
		start:     -1,
		firstTok:  -1,
		ctx:       ctx,
		out:       make(chan sched.Token, req.MaxNew+1),
		engine:    gi,
		migrateTo: -1,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, sched.ErrClosed
	}
	p.nextKey++
	f.key = p.nextKey
	p.flights[f.key] = f
	p.routed[gi]++
	p.pending++
	p.mu.Unlock()

	ch, err := p.engines[gi].Submit(ctx, sched.Request{
		ID: f.key, Prompt: req.Prompt, MaxNew: req.MaxNew, Predicted: pred, Arrival: req.Arrival,
		Deadline: f.deadline,
	})
	if err != nil {
		p.mu.Lock()
		delete(p.flights, f.key)
		p.routed[gi]--
		p.releaseLocked()
		p.mu.Unlock()
		return nil, err
	}
	f.start = p.now()
	p.wg.Add(1)
	go p.run(f, ch)
	return f.out, nil
}

// onPreempt is engine gpu's sched.Config.Migrate hook: it just evicted req
// under page pressure. Accept the handoff only when another engine has page
// headroom for the request's entire lifetime there (its
// sched.Engine.LifetimePages, the rule its Submit admits by) — anything less
// and the target could immediately preempt it back, so a local
// requeue-and-wait is at least as good. Called from the engine loop with no
// engine lock held.
func (p *Pool) onPreempt(gpu int, req sched.Request, generated int) bool {
	p.mu.Lock()
	f := p.flights[req.ID]
	closed := p.closed
	p.mu.Unlock()
	if f == nil || closed {
		return false
	}
	best, bestFree := -1, 0
	for i, e := range p.engines {
		if i == gpu || e.Failed() != nil {
			continue
		}
		need := e.LifetimePages(req)
		v := e.View()
		free := v.FreePages()
		if free < 0 { // unbounded: always room
			free = need + v.PageBudget + 1
		}
		if free >= need && free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.flights[req.ID] != f {
		return false
	}
	f.migrateTo = best
	return true
}

// maxFailovers caps how many engine failures a single request may ride out
// before the pool stops re-homing it and terminates its stream with an
// error token — a rolling blackout must not pin a request (and its replayed
// prefill work) in an endless resubmit loop.
const maxFailovers = 3

// run forwards one flight's engine stream to the caller, re-admitting the
// request each time a stream closes with a migration pending or with its
// engine failed. Token positions are remapped to the caller's original
// prompt, so continuation submissions (whose engine-side prompt includes
// previously emitted tokens) are invisible. Engine-side terminal error
// tokens (deadline shed, engine failure) are never forwarded raw: shedding
// surfaces on the caller's stream as-is, failure triggers failover and only
// surfaces once recovery is exhausted.
func (p *Pool) run(f *flight, ch <-chan sched.Token) {
	defer p.wg.Done()
	for {
		var streamErr error
		for tok := range ch {
			if tok.Err != nil {
				// The engine is closing this stream and the token says
				// why; the pool decides below whether that is terminal
				// for the caller or just cause for failover.
				streamErr = tok.Err
				continue
			}
			if f.firstTok < 0 {
				f.firstTok = p.now()
			}
			f.generated = append(f.generated, tok.ID)
			f.out <- sched.Token{ID: tok.ID, Pos: len(f.prompt) + len(f.generated) - 1}
		}
		p.mu.Lock()
		target := f.migrateTo
		f.migrateTo = -1
		if p.closed || f.ctx.Err() != nil || len(f.generated) >= f.maxNew {
			p.finishLocked(f)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		if streamErr != nil && !errors.Is(streamErr, sched.ErrEngineFailed) {
			// Shed past its deadline (or another engine-side terminal
			// condition): deliberate load shedding, not a fault to route
			// around. Surface the cause and retire.
			p.fail(f, streamErr)
			return
		}
		failed := streamErr != nil || p.engines[f.engine].Failed() != nil
		if target < 0 && !failed {
			// Closed without completing on a healthy engine with no
			// migration pending: engine Close racing pool shutdown.
			p.mu.Lock()
			p.finishLocked(f)
			p.mu.Unlock()
			return
		}
		if failed {
			f.failovers++
			if f.failovers > maxFailovers {
				p.fail(f, fmt.Errorf("%w: request %d gave up after %d failovers",
					sched.ErrEngineFailed, f.id, maxFailovers))
				return
			}
			// Any hook-chosen migration target predates the failure;
			// resubmit re-ranks the healthy engines itself.
			target = -1
		}

		// Serialize prompt + emitted tokens and re-admit; the target's
		// chunked prefill rebuilds the KV cache bit-identically. Replay
		// marks the emitted suffix so a sparse-attention target re-advances
		// it through decode steps instead (dense targets ignore it). A
		// continuation that already streamed carries no deadline: shedding
		// a half-delivered response would break the TTFT contract the
		// deadline models; one still queued keeps its original deadline and
		// may legitimately be shed on arrival.
		cont := make([]int, 0, len(f.prompt)+len(f.generated))
		cont = append(cont, f.prompt...)
		cont = append(cont, f.generated...)
		rem := f.maxNew - len(f.generated)
		predRem := f.predicted - len(f.generated)
		if predRem < 1 {
			predRem = 1
		}
		dl := f.deadline
		if f.firstTok >= 0 {
			dl = 0
		}
		creq := sched.Request{ID: f.key, Prompt: cont, MaxNew: rem, Predicted: predRem,
			Arrival: f.arrival, Replay: len(f.generated), Deadline: dl}
		nch, engine, err := p.resubmit(f, creq, target)
		if err != nil {
			p.fail(f, err)
			return
		}
		p.mu.Lock()
		if engine != f.engine {
			f.hops++
			if failed {
				p.failedOver++
			} else {
				p.migrations++
			}
		}
		f.engine = engine
		p.mu.Unlock()
		ch = nch
	}
}

// resubmit re-admits a continuation request after a migration handoff or an
// engine failure. Candidate order: the hook-chosen migration target (when
// there is one), then the source engine — whose admission invariant
// guarantees a lone fit, making it the requeue of record when the target
// rejects the handoff — then every other healthy engine in decreasing
// free-page order. A target that rejects the re-Submit counts as a failed
// migration; exhausting every candidate returns an error for the caller's
// stream instead of silently ending it.
func (p *Pool) resubmit(f *flight, creq sched.Request, preferred int) (<-chan sched.Token, int, error) {
	seen := make([]bool, len(p.engines))
	order := make([]int, 0, len(p.engines))
	add := func(i int) {
		if i >= 0 && !seen[i] && p.engines[i].Failed() == nil {
			seen[i] = true
			order = append(order, i)
		}
	}
	add(preferred)
	add(f.engine)
	type cand struct{ i, free int }
	rest := make([]cand, 0, len(p.engines))
	for i, e := range p.engines {
		if seen[i] || e.Failed() != nil {
			continue
		}
		v := e.View()
		free := v.FreePages()
		if free < 0 { // unbounded
			free = 1 << 30
		}
		rest = append(rest, cand{i, free})
	}
	sort.Slice(rest, func(a, b int) bool {
		if rest[a].free != rest[b].free {
			return rest[a].free > rest[b].free
		}
		return rest[a].i < rest[b].i
	})
	for _, c := range rest {
		add(c.i)
	}
	err := fmt.Errorf("%w: no healthy engine for request %d", sched.ErrEngineFailed, f.id)
	for _, i := range order {
		nch, serr := p.engines[i].Submit(f.ctx, creq)
		if serr == nil {
			return nch, i, nil
		}
		err = fmt.Errorf("fleet: request %d found no engine to resume on: %w", f.id, serr)
		if i == preferred && preferred != f.engine {
			p.mu.Lock()
			p.migrationFailed++
			p.mu.Unlock()
		}
	}
	return nil, -1, err
}

// fail terminates a flight's caller-facing stream with a wrapped error
// token and retires it — the explicit end of the line when the engine shed
// the request or no healthy engine can hold it. The out channel's spare
// slot guarantees the send never blocks.
func (p *Pool) fail(f *flight, err error) {
	f.out <- sched.Token{Err: err}
	p.mu.Lock()
	p.finishLocked(f)
	p.mu.Unlock()
}

// finishLocked retires a flight: the caller-facing stream closes and the
// pool records its wall-clock outcome (unless Close already threw the
// request away, which flips the aborted flag drains report). Outcome
// timing is the client's view — arrival at Submit, first token and finish
// as forwarded — so routing, queueing and migration delays are all inside
// TTFT/E2E; Preemptions counts cross-engine hops (engine-local recompute
// preemptions stay in the per-engine Stats). The caller holds mu.
func (p *Pool) finishLocked(f *flight) {
	delete(p.flights, f.key)
	close(f.out)
	if p.closed && len(f.generated) < f.maxNew && f.ctx.Err() == nil {
		p.aborted = true
	} else {
		now := p.now()
		first := f.firstTok
		if first < 0 {
			first = now
		}
		start := f.start
		if start < 0 {
			start = now
		}
		p.outcomes = append(p.outcomes, serving.Outcome{
			Req: workload.Request{
				ID: f.id, PromptLen: len(f.prompt), RefLen: f.predicted, ArrivalTime: f.arrival,
			},
			GPU:         f.engine,
			RespLen:     len(f.generated),
			Start:       start,
			FirstToken:  first,
			Finish:      now,
			Preemptions: f.hops,
		})
	}
	p.releaseLocked()
}

// releaseLocked drops the pending count and releases drain waiters at zero.
func (p *Pool) releaseLocked() {
	p.pending--
	if p.pending == 0 {
		for _, w := range p.waiters {
			close(w)
		}
		p.waiters = nil
	}
}

// Drain blocks until every request submitted so far has retired at the
// pool level — including any migration hops in flight — or ctx is
// cancelled. A drain released because Close aborted in-flight requests
// reports sched.ErrClosed, matching the engine contract.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return sched.ErrClosed
	}
	if p.pending == 0 {
		p.mu.Unlock()
		return nil
	}
	w := make(chan struct{})
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
	select {
	case <-w:
		p.mu.Lock()
		aborted := p.aborted
		p.mu.Unlock()
		if aborted {
			return sched.ErrClosed
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts every engine down and waits for the forwarders to retire
// their flights. In-flight streams close without completing. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if already {
		return
	}
	for _, e := range p.engines {
		e.Close()
	}
	p.wg.Wait()
}

// Outcomes returns the pool-level record of every retired request so far,
// sorted by request ID — the same vocabulary the simulator and the
// single-engine scheduler emit, measured against the shared pool epoch.
func (p *Pool) Outcomes() []serving.Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]serving.Outcome(nil), p.outcomes...)
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
