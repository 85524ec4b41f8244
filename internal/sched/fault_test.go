package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rethinkkv/internal/faults"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

// collectErr drains a stream, separating ordinary tokens from the terminal
// error token (if any).
func collectErr(t *testing.T, ch <-chan Token) ([]int, error) {
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

// waitAdmitted polls until the engine has admitted n requests — the
// fixture tests use it to order submissions around the admission boundary
// deterministically.
func waitAdmitted(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine never admitted %d requests", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMaxQueueOverload pins the bounded-admission contract: with one
// request running (batch full) and one queued, a MaxQueue of 1 rejects the
// next Submit with ErrOverloaded, and the queued request still completes
// untouched once the runner retires. The runner's first step waits for the
// third Submit, so it cannot retire and free the slot before then.
func TestMaxQueueOverload(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	submitted := make(chan struct{})
	release := sync.OnceFunc(func() { close(submitted) })
	e, err := New(m, Config{MaxBatch: 1, PageTokens: 8, MaxQueue: 1, StepHook: func(n int) {
		if n == 1 {
			<-submitted
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	t.Cleanup(release)

	chA, err := e.Submit(context.Background(), Request{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 24, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, e, 1) // A holds the only batch slot
	chB, err := e.Submit(context.Background(), Request{ID: 1, Prompt: []int{4, 5, 6}, MaxNew: 6, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Submit(context.Background(), Request{ID: 2, Prompt: []int{7, 8}, MaxNew: 6, Arrival: -1})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit: err = %v, want ErrOverloaded", err)
	}
	release()

	if toks, terr := collectErr(t, chA); terr != nil || len(toks) != 24 {
		t.Fatalf("runner: %d tokens, err %v", len(toks), terr)
	}
	if toks, terr := collectErr(t, chB); terr != nil || len(toks) != 6 {
		t.Fatalf("queued request: %d tokens, err %v; overload must not touch it", len(toks), terr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	if st.Completed != 2 || st.Shed != 0 {
		t.Fatalf("Completed/Shed = %d/%d, want 2/0", st.Completed, st.Shed)
	}
}

// TestDeadlineShedding: a slowed engine (1ms per iteration via the
// injector's delay) decodes a long runner while two requests wait on a full
// batch slot — one with a 20ms TTFT deadline, one with an earlier 5ms one.
// Both must shed with ErrDeadlineExceeded error tokens; the runner, already
// started, must never be shed.
func TestDeadlineShedding(t *testing.T) {
	inj := faults.New()
	inj.Delay(0, time.Millisecond)
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{
		MaxBatch:   1,
		PageTokens: 8,
		StepHook:   inj.StepHook(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// ~60ms of decode: far past both deadlines below.
	chA, err := e.Submit(context.Background(), Request{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 60, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, e, 1)
	chB, err := e.Submit(context.Background(), Request{
		ID: 1, Prompt: []int{4, 5, 6}, MaxNew: 6, Arrival: -1, Deadline: e.Now() + 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	chC, err := e.Submit(context.Background(), Request{
		ID: 2, Prompt: []int{7, 8}, MaxNew: 6, Arrival: -1, Deadline: e.Now() + 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}

	toksB, errB := collectErr(t, chB)
	if len(toksB) != 0 || !errors.Is(errB, ErrDeadlineExceeded) {
		t.Fatalf("default-deadline request: %d tokens, err %v, want 0 tokens and ErrDeadlineExceeded", len(toksB), errB)
	}
	toksC, errC := collectErr(t, chC)
	if len(toksC) != 0 || !errors.Is(errC, ErrDeadlineExceeded) {
		t.Fatalf("explicit-deadline request: %d tokens, err %v, want 0 tokens and ErrDeadlineExceeded", len(toksC), errC)
	}
	if toksA, errA := collectErr(t, chA); errA != nil || len(toksA) != 60 {
		t.Fatalf("started runner: %d tokens, err %v; started requests are never shed", len(toksA), errA)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	if st.Shed != 2 || st.Completed != 1 || st.Cancelled != 0 {
		t.Fatalf("Shed/Completed/Cancelled = %d/%d/%d, want 2/1/0", st.Shed, st.Completed, st.Cancelled)
	}
}

// TestPreemptedVictimIsNeverShed: a request that has streamed tokens and is
// then preempted goes back on the queue past its TTFT deadline. It started, so
// it must finish, token-identical to the sequential run, and nothing may be
// shed.
func TestPreemptedVictimIsNeverShed(t *testing.T) {
	promptA, promptB := []int{4, 5, 6}, []int{1, 2, 3}
	const maxNew = 28
	want := sequentialReference(t, [][]int{promptA}, maxNew)[0]
	inj := faults.New()
	inj.Delay(0, 5*time.Millisecond)
	m := model.New(model.Tiny(), seed)
	// B grows to 8 of the 12 pages. A, predicted to want one token, is
	// admitted beside it and, the newest arrival, preempted once their growth
	// meets the budget — after about 20 steps, twice A's 50 ms deadline.
	e, err := New(m, Config{MaxBatch: 4, PageTokens: 4, KVPages: 12, StepHook: inj.StepHook(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	chB, err := e.Submit(context.Background(), Request{ID: 0, Prompt: promptB, MaxNew: maxNew, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, e, 1)
	chA, err := e.Submit(context.Background(), Request{
		ID: 1, Prompt: promptA, MaxNew: maxNew, Predicted: 1, Arrival: -1, Deadline: e.Now() + 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	toksA, errA := collectErr(t, chA)
	if _, errB := collectErr(t, chB); errB != nil {
		t.Fatalf("runner B: %v", errB)
	}
	if errA != nil {
		t.Fatalf("preempted request ended with %v after %d tokens; a started request is never shed", errA, len(toksA))
	}
	if len(toksA) != len(want) {
		t.Fatalf("preempted request: %d tokens, want %d", len(toksA), len(want))
	}
	for i := range want {
		if toksA[i] != want[i] {
			t.Fatalf("preempted request token %d: %d != sequential %d", i, toksA[i], want[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	if st.Preemptions == 0 {
		t.Fatal("the budget never preempted A; test is vacuous")
	}
	if st.Shed != 0 || st.Completed != 2 {
		t.Fatalf("Shed/Completed = %d/%d, want 0/2", st.Shed, st.Completed)
	}
}

// TestStepPanicFailsEngine is the recover-boundary gate: an injected panic
// at iteration 4 must mark the engine failed instead of unwinding into the
// process, terminate every live stream with an ErrEngineFailed error token,
// and poison later Submit and Drain with the same typed failure.
func TestStepPanicFailsEngine(t *testing.T) {
	inj := faults.New()
	inj.PanicAt(0, 4)
	m := model.New(model.Tiny(), seed)
	// Iteration 1 waits for the last Submit: a loop that reached iteration 4
	// first (it does under -race, where a Submit costs several steps) would
	// fail the later Submits instead of their streams.
	submitted := make(chan struct{})
	release := sync.OnceFunc(func() { close(submitted) })
	step := inj.StepHook(0)
	e, err := New(m, Config{
		MaxBatch:   4,
		PageTokens: 8,
		StepHook: func(n int) {
			if n == 1 {
				<-submitted
			}
			step(n)
		},
		SubmitHook: inj.SubmitHook(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	t.Cleanup(release) // registered last, runs first: Close waits for the loop

	chans := make([]<-chan Token, 3)
	for i := range chans {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: []int{i + 1, i + 2}, MaxNew: 12, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	release()
	for i, ch := range chans {
		toks, terr := collectErr(t, ch)
		if !errors.Is(terr, ErrEngineFailed) {
			t.Fatalf("stream %d terminal err = %v, want ErrEngineFailed", i, terr)
		}
		if len(toks) >= 12 {
			t.Fatalf("stream %d completed despite the panic at iteration 4", i)
		}
	}
	if !inj.Fired(0) {
		t.Fatal("scheduled panic never fired; test is vacuous")
	}
	if ferr := e.Failed(); !errors.Is(ferr, ErrEngineFailed) {
		t.Fatalf("Failed() = %v, want ErrEngineFailed", ferr)
	}
	if _, err := e.Submit(context.Background(), Request{ID: 9, Prompt: []int{1}, MaxNew: 2}); !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("submit after failure: %v, want ErrEngineFailed", err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("drain after failure: %v, want ErrEngineFailed", err)
	}
}

// TestHandoffHookPanicEndsVictimStream: a Handoff hook that panics fails the
// engine like any step-loop panic, and the preemption victim it was offered
// — off the running set, not yet handed over — must be ended with the rest:
// every stream closes, the victim's on an ErrEngineFailed token. The failed
// engine offers its requests to the same hook, which panics again; each
// panic refuses the request. Bounded, so a victim left open fails the test
// instead of hanging it.
func TestHandoffHookPanicEndsVictimStream(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	submitted := make(chan struct{})
	release := sync.OnceFunc(func() { close(submitted) })
	victim := -1 // written by the hook's first call, read once every stream has closed
	e, err := New(m, Config{
		MaxBatch:   4,
		PageTokens: 4,
		KVPages:    6, // three requests each growing to 4 pages, predicted to need 1: preemption is certain
		StepHook: func(n int) {
			if n == 1 {
				<-submitted
			}
		},
		Handoff: func(h *Handle) {
			if victim < 0 {
				victim = h.Request().ID
			}
			panic("handoff hook")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	t.Cleanup(release)

	chans := make([]<-chan Token, 3)
	for i := range chans {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: []int{3*i + 1, 3*i + 2, 3*i + 3}, MaxNew: 12, Predicted: 1, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	release()
	errs := make([]error, len(chans))
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for i, ch := range chans {
			_, errs[i] = collectErr(t, ch)
		}
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("a stream was still open 10s after the Handoff hook panicked")
	}
	if victim < 0 {
		t.Fatal("no preemption reached the Handoff hook; test is vacuous")
	}
	if !errors.Is(errs[victim], ErrEngineFailed) {
		t.Fatalf("victim %d's stream ended with %v, want ErrEngineFailed", victim, errs[victim])
	}
	if err := e.Drain(context.Background()); !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("drain after the hook panicked: %v, want ErrEngineFailed", err)
	}
}

// TestSubmitStormRejectsThenRecovers: an injected ErrOutOfPages storm
// bounces exactly its budget of Submits; the first accepted request after
// the storm decodes bit-identically to the sequential reference.
func TestSubmitStormRejectsThenRecovers(t *testing.T) {
	prompt := []int{1, 2, 3, 4, 5}
	const maxNew = 10
	want := sequentialReference(t, [][]int{prompt}, maxNew)[0]

	inj := faults.New()
	inj.SubmitStorm(0, 2)
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{MaxBatch: 2, PageTokens: 8, SubmitHook: inj.SubmitHook(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompt, MaxNew: maxNew}); !errors.Is(err, kvcache.ErrOutOfPages) {
			t.Fatalf("storm submit %d: err = %v, want ErrOutOfPages", i, err)
		}
	}
	ch, err := e.Submit(context.Background(), Request{ID: 2, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
	if err != nil {
		t.Fatalf("submit after storm: %v", err)
	}
	toks, terr := collectErr(t, ch)
	if terr != nil {
		t.Fatalf("post-storm stream err: %v", terr)
	}
	if len(toks) != len(want) {
		t.Fatalf("post-storm stream: %d tokens, want %d", len(toks), len(want))
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("post-storm token %d: %d != sequential %d", i, toks[i], want[i])
		}
	}
	if inj.Stormed(0) != 2 {
		t.Fatalf("Stormed = %d, want 2", inj.Stormed(0))
	}
}
