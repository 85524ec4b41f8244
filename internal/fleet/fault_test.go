package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rethinkkv/internal/faults"
	"rethinkkv/internal/router"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// collectErr drains a pool stream, separating ordinary tokens from the
// terminal error token (if any).
func collectErr(t *testing.T, ch <-chan sched.Token) ([]int, error) {
	t.Helper()
	var out []int
	var terr error
	for tok := range ch {
		if tok.Err != nil {
			terr = tok.Err
			continue
		}
		out = append(out, tok.ID)
	}
	return out, terr
}

// rrRouter deals requests round-robin over whatever views it is offered —
// with a full healthy fleet that spreads load everywhere, including the
// engine a chaos scenario is about to kill.
type rrRouter struct {
	mu sync.Mutex
	n  int
}

func (r *rrRouter) Name() string { return "rr" }
func (r *rrRouter) Route(_ workload.Request, views []serving.GPUView) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.n % len(views)
	r.n++
	return i
}

// TestEngineFailureFailoverBitIdentical is the PR's acceptance gate: a
// scheduled fault kills 1 of 4 engines mid-decode (iteration 6, with 18-token
// streams in flight) and every submitted request must still complete,
// bit-identical to the no-fault sequential reference, via replay on the
// surviving engines.
func TestEngineFailureFailoverBitIdentical(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	const victim = 3
	inj := faults.New()
	inj.PanicAt(victim, 6)
	p := newPool(t, Config{
		Engines: 4,
		Router:  &rrRouter{},
		Migrate: true,
		Faults:  inj,
		Engine:  sched.Config{MaxBatch: 3, PageTokens: 8},
	})

	chans := make([]<-chan sched.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := p.Submit(context.Background(), sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		toks, terr := collectErr(t, ch)
		if terr != nil {
			t.Fatalf("request %d terminated with %v; failover should have saved it", i, terr)
		}
		got[i] = toks
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "failover")

	if !inj.Fired(victim) {
		t.Fatalf("engine %d never hit its scheduled panic; test is vacuous", victim)
	}
	st := p.Stats()
	if st.EngineFailures != 1 {
		t.Fatalf("EngineFailures = %d, want 1", st.EngineFailures)
	}
	if st.FailedOver == 0 {
		t.Fatal("no request failed over off the dead engine")
	}
	outs := p.Outcomes()
	if len(outs) != len(prompts) {
		t.Fatalf("outcomes %d, want %d", len(outs), len(prompts))
	}
	for i, o := range outs {
		if o.RespLen != maxNew {
			t.Fatalf("outcome %d RespLen = %d, want %d", i, o.RespLen, maxNew)
		}
		if o.GPU == victim {
			t.Fatalf("outcome %d finished on the dead engine %d", i, victim)
		}
	}

	// The quarantine holds: new submissions never land on the dead engine.
	ch, err := p.Submit(context.Background(), sched.Request{ID: 99, Prompt: []int{3, 1, 4}, MaxNew: 4, Arrival: -1})
	if err != nil {
		t.Fatalf("submit after failure: %v", err)
	}
	if _, terr := collectErr(t, ch); terr != nil {
		t.Fatalf("post-failure request: %v", terr)
	}
	drain(t, p)
	if n := p.Stats().Routed[victim]; n != st.Routed[victim] {
		t.Fatalf("quarantined engine %d received %d new placements", victim, n-st.Routed[victim])
	}
}

// TestAllEnginesFailedTerminatesLocally: when the only engine dies, its
// requests have nowhere to go — their streams must end with an error token
// wrapping ErrEngineFailed (not hang, not close silently), and new Submits
// must fail fast with the same sentinel.
func TestAllEnginesFailedTerminatesLocally(t *testing.T) {
	inj := faults.New()
	inj.PanicAt(0, 3)
	p := newPool(t, Config{
		Engines: 1,
		Router:  router.Baseline{},
		Faults:  inj,
		Engine:  sched.Config{MaxBatch: 2, PageTokens: 8},
	})
	ch, err := p.Submit(context.Background(), sched.Request{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 10, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	toks, terr := collectErr(t, ch)
	if !errors.Is(terr, sched.ErrEngineFailed) {
		t.Fatalf("stream terminal err = %v, want ErrEngineFailed", terr)
	}
	if len(toks) >= 10 {
		t.Fatal("stream completed despite the engine dying at iteration 3")
	}
	if _, err := p.Submit(context.Background(), sched.Request{ID: 1, Prompt: []int{4}, MaxNew: 2}); !errors.Is(err, sched.ErrEngineFailed) {
		t.Fatalf("submit with whole fleet down: %v, want ErrEngineFailed", err)
	}
	if st := p.Stats(); st.EngineFailures != 1 || st.FailedOver != 0 {
		t.Fatalf("EngineFailures/FailedOver = %d/%d, want 1/0", st.EngineFailures, st.FailedOver)
	}
	drain(t, p)
}

// TestMigrationFallbackRequeuesOnSource is the hardened-fallback regression
// gate: the migration target rejects every re-Submit (an injected
// ErrOutOfPages storm), so each handoff must requeue its victim on the
// source engine and count a MigrationFailed — and every stream must still
// complete bit-identically instead of silently ending.
func TestMigrationFallbackRequeuesOnSource(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	inj := faults.New()
	inj.SubmitStorm(1, 1<<20) // engine 1 rejects everything, forever
	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Migrate: true,
		Faults:  inj,
		// The TestDecodeMigrationBitIdentical shape: this budget is known
		// to force evictions, and idle engine 1's headroom makes the hook
		// choose it every time.
		Engine: sched.Config{MaxBatch: 4, PageTokens: 4, KVPages: 14},
	})
	chans := make([]<-chan sched.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := p.Submit(context.Background(), sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		toks, terr := collectErr(t, ch)
		if terr != nil {
			t.Fatalf("request %d terminated with %v; fallback should have requeued it", i, terr)
		}
		got[i] = toks
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "fallback")

	st := p.Stats()
	if inj.Stormed(1) == 0 {
		t.Fatal("no re-Submit ever reached the stormed target; test is vacuous")
	}
	if st.MigrationFailed == 0 {
		t.Fatal("failed handoffs were not counted")
	}
	if st.Migrations != 0 {
		t.Fatalf("Migrations = %d, want 0 (every handoff was rejected)", st.Migrations)
	}
	for i, o := range p.Outcomes() {
		if o.GPU != 0 {
			t.Fatalf("outcome %d finished on engine %d, want the source engine 0", i, o.GPU)
		}
	}
}

// TestCancelRacingMigrationHop cancels requests while the pool is actively
// migrating preemption victims between engines — the forwarder may be
// mid-handoff when the ctx dies. Streams must close, Drain must not hang,
// and both engines must end with every KV page released. Primarily a
// -race gate for the failover/migration rewrite.
func TestCancelRacingMigrationHop(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	const budget = 14
	for _, delay := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond} {
		p := newPool(t, Config{
			Engines: 2,
			Router:  pinRouter{to: 0},
			Migrate: true,
			Engine:  sched.Config{MaxBatch: 4, PageTokens: 4, KVPages: budget},
		})
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i, prompt := range prompts {
			ch, err := p.Submit(ctx, sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
			if err != nil {
				t.Fatalf("delay %v submit %d: %v", delay, i, err)
			}
			wg.Add(1)
			go func(ch <-chan sched.Token) {
				defer wg.Done()
				for range ch {
				}
			}(ch)
		}
		time.Sleep(delay)
		cancel()
		wg.Wait() // every stream closed
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := p.Drain(dctx); err != nil {
			t.Fatalf("delay %v: drain after cancel: %v", delay, err)
		}
		dcancel()
		for i, v := range p.Views(p.now()) {
			if v.FreePages != budget {
				t.Fatalf("delay %v: engine %d leaked pages: FreePages = %d, want %d", delay, i, v.FreePages, budget)
			}
		}
		p.Close()
	}
}
