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
		Faults:  inj,
		// The TestDecodeMigrationBitIdentical shape: this budget and the
		// one-token predictions are known to force evictions, and idle
		// engine 1's headroom makes the hook choose it every time.
		Engine: sched.Config{MaxBatch: 4, PageTokens: 4, KVPages: 14},
	})
	chans := make([]<-chan sched.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := p.Submit(context.Background(), sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Predicted: 1, Arrival: -1})
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

// TestDeadlineShedOnSlowEngine: on an engine slowed to ~1ms per iteration, a
// request queued behind a 60-token runner past its 5ms TTFT deadline must end
// its pool stream with ErrDeadlineExceeded, and the engine must count the
// shed; the runner, already started, completes.
func TestDeadlineShedOnSlowEngine(t *testing.T) {
	inj := faults.New()
	inj.Delay(0, time.Millisecond)
	p := newPool(t, Config{
		Engines: 1,
		Router:  router.Baseline{},
		Faults:  inj,
		Engine:  sched.Config{MaxBatch: 1, PageTokens: 8},
	})
	chA, err := p.Submit(context.Background(), sched.Request{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 60, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); p.Stats().Engines[0].Admitted < 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine never admitted the runner")
		}
	}
	chB, err := p.Submit(context.Background(), sched.Request{
		ID: 1, Prompt: []int{4, 5, 6}, MaxNew: 6, Arrival: -1, Deadline: p.Now() + 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	if toks, terr := collectErr(t, chB); len(toks) != 0 || !errors.Is(terr, sched.ErrDeadlineExceeded) {
		t.Fatalf("queued request: %d tokens, err %v, want 0 tokens and ErrDeadlineExceeded", len(toks), terr)
	}
	if toks, terr := collectErr(t, chA); terr != nil || len(toks) != 60 {
		t.Fatalf("started runner: %d tokens, err %v; started requests are never shed", len(toks), terr)
	}
	drain(t, p)
	if st := p.Stats().Engines[0]; st.Shed != 1 || st.Completed != 1 {
		t.Fatalf("Shed/Completed = %d/%d, want 1/1", st.Shed, st.Completed)
	}
}

// TestFailoverContinuationIsNeverShed: a request whose engine dies mid-decode
// (50ms iterations, panic at the sixth) is resumed on the other engine after
// its 200ms TTFT deadline has passed. It has already streamed, so it is never
// shed: it must complete, token-identical to the no-fault run, and nothing
// may be shed.
func TestFailoverContinuationIsNeverShed(t *testing.T) {
	prompt := []int{1, 2, 3, 4, 5}
	const maxNew = 12
	want := sequentialReference(t, [][]int{prompt}, maxNew)

	inj := faults.New()
	inj.Delay(0, 50*time.Millisecond)
	inj.PanicAt(0, 6)
	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Faults:  inj,
		Engine:  sched.Config{MaxBatch: 2, PageTokens: 8},
	})
	ch, err := p.Submit(context.Background(), sched.Request{
		ID: 0, Prompt: prompt, MaxNew: maxNew, Arrival: -1, Deadline: p.Now() + 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	toks, terr := collectErr(t, ch)
	if terr != nil {
		t.Fatalf("continuation ended with %v; a request that already streamed is never shed", terr)
	}
	drain(t, p)
	assertBitIdentical(t, [][]int{toks}, want, "failover past deadline")
	if !inj.Fired(0) {
		t.Fatal("engine 0 never hit its scheduled panic; test is vacuous")
	}
	st := p.Stats()
	if st.FailedOver != 1 || st.Engines[1].Shed != 0 {
		t.Fatalf("FailedOver/Shed = %d/%d, want 1/0", st.FailedOver, st.Engines[1].Shed)
	}
}

// TestCancelRacingMigrationHop cancels requests while the pool is actively
// migrating preemption victims between engines — a victim may be inside the
// handoff hook, on neither engine's lists, when its ctx dies. In the last row
// the migration target fails mid-run: its requests fail over back to engine
// 0, and the cancel lands once the fault fired. Every stream must end exactly
// once (at most one error token, then one close), Drain must not hang, and
// both engines must end with every KV page released. Primarily a -race gate
// for the handoff.
func TestCancelRacingMigrationHop(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	const budget = 14
	for _, tc := range []struct {
		delay   time.Duration
		panicAt int // engine 1's iteration that panics, 0 for none
	}{
		{0, 0}, {500 * time.Microsecond, 0}, {2 * time.Millisecond, 0}, {0, 3},
	} {
		inj := faults.New()
		if tc.panicAt > 0 {
			inj.PanicAt(1, tc.panicAt)
		}
		p := newPool(t, Config{
			Engines: 2,
			Router:  pinRouter{to: 0},
			Faults:  inj,
			Engine:  sched.Config{MaxBatch: 4, PageTokens: 4, KVPages: budget},
		})
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i, prompt := range prompts {
			// One-token predictions over-commit the budget, so victims are
			// preempted and handed to engine 1.
			ch, err := p.Submit(ctx, sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Predicted: 1, Arrival: -1})
			if err != nil {
				t.Fatalf("%+v submit %d: %v", tc, i, err)
			}
			wg.Add(1)
			go func(ch <-chan sched.Token) {
				defer wg.Done()
				errs := 0
				for tok := range ch {
					if tok.Err != nil {
						errs++
					}
				}
				if errs > 1 {
					t.Errorf("%+v: a stream carried %d error tokens", tc, errs)
				}
			}(ch)
		}
		if tc.panicAt > 0 {
			for deadline := time.Now().Add(10 * time.Second); !inj.Fired(1); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%+v: engine 1 never reached its scheduled panic; the row is vacuous", tc)
				}
			}
		}
		time.Sleep(tc.delay)
		cancel()
		closed := make(chan struct{})
		go func() { wg.Wait(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatalf("%+v: a stream was still open 30s after the cancel", tc)
		}
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := p.Drain(dctx); err != nil {
			t.Fatalf("%+v: drain after cancel: %v", tc, err)
		}
		dcancel()
		for i, v := range p.Views(p.now()) {
			if v.FreePages != budget {
				t.Fatalf("%+v: engine %d leaked pages: FreePages = %d, want %d", tc, i, v.FreePages, budget)
			}
		}
		if st := p.Stats(); tc.panicAt > 0 && (st.Migrations == 0 || st.FailedOver == 0) {
			t.Fatalf("%+v: Migrations/FailedOver = %d/%d; the row is vacuous", tc, st.Migrations, st.FailedOver)
		}
		p.Close()
	}
}
