package rethinkkv_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rethinkkv"
)

// drainStream splits a facade stream into ordinary tokens and the terminal
// error token (if any).
func drainStream(t *testing.T, ch <-chan rethinkkv.Token) ([]int, error) {
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

// waitServerAdmitted polls server stats until n admissions happened.
func waitServerAdmitted(t *testing.T, srv *rethinkkv.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("server never admitted %d requests", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServerOverloadTyped pins the public back-pressure contract: with the
// single batch slot taken and WithMaxQueue(1) full, the next Submit fails
// with an errors.Is-able ErrOverloaded, and the queued request is
// unaffected.
func TestServerOverloadTyped(t *testing.T) {
	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(5),
		rethinkkv.WithMaxBatch(1),
		rethinkkv.WithMaxQueue(1),
		rethinkkv.WithMaxNewTokens(24),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	chA, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	waitServerAdmitted(t, srv, 1)
	chB, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{4, 5, 6}, MaxNew: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{7, 8}}); !errors.Is(err, rethinkkv.ErrOverloaded) {
		t.Fatalf("overloaded submit: err = %v, want ErrOverloaded", err)
	}
	if toks, terr := drainStream(t, chA); terr != nil || len(toks) != 24 {
		t.Fatalf("runner: %d tokens, err %v", len(toks), terr)
	}
	if toks, terr := drainStream(t, chB); terr != nil || len(toks) != 6 {
		t.Fatalf("queued request: %d tokens, err %v", len(toks), terr)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerDeadlineShedTyped: a server slowed to ~1ms per iteration by an
// injected delay decodes a long runner while a queued request's TTFT
// deadline (per-request, and the WithAdmissionTimeout default) expires.
// The shed stream must end with a token whose Err is errors.Is-able
// against ErrDeadlineExceeded, and Stats must count the sheds.
func TestServerDeadlineShedTyped(t *testing.T) {
	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(5),
		rethinkkv.WithMaxBatch(1),
		rethinkkv.WithAdmissionTimeout(20*time.Millisecond),
		rethinkkv.WithFaults(rethinkkv.FaultPlan{StepDelays: map[int]time.Duration{0: time.Millisecond}}),
		rethinkkv.WithMaxNewTokens(60),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	chA, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	waitServerAdmitted(t, srv, 1)
	chB, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{4, 5, 6}, MaxNew: 6})
	if err != nil {
		t.Fatal(err)
	}
	chC, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{
		Prompt: []int{7, 8}, MaxNew: 6, Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	if toks, terr := drainStream(t, chB); len(toks) != 0 || !errors.Is(terr, rethinkkv.ErrDeadlineExceeded) {
		t.Fatalf("default-deadline request: %d tokens, err %v, want ErrDeadlineExceeded", len(toks), terr)
	}
	if toks, terr := drainStream(t, chC); len(toks) != 0 || !errors.Is(terr, rethinkkv.ErrDeadlineExceeded) {
		t.Fatalf("explicit-deadline request: %d tokens, err %v, want ErrDeadlineExceeded", len(toks), terr)
	}
	if toks, terr := drainStream(t, chA); terr != nil || len(toks) != 60 {
		t.Fatalf("started runner: %d tokens, err %v; started requests are never shed", len(toks), terr)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := srv.Stats()
	if st.Shed != 2 || st.Completed != 1 {
		t.Fatalf("Shed/Completed = %d/%d, want 2/1", st.Shed, st.Completed)
	}
}

// TestFleetDeadlineShedTyped mirrors TestServerDeadlineShedTyped on a
// one-engine Fleet: the WithAdmissionTimeout default, which the facade turns
// into each request's deadline, sheds a request queued behind a slowed
// runner.
func TestFleetDeadlineShedTyped(t *testing.T) {
	fl, err := rethinkkv.NewFleet(1,
		rethinkkv.WithSeed(5),
		rethinkkv.WithMaxBatch(1),
		rethinkkv.WithAdmissionTimeout(20*time.Millisecond),
		rethinkkv.WithFaults(rethinkkv.FaultPlan{StepDelays: map[int]time.Duration{0: time.Millisecond}}),
		rethinkkv.WithMaxNewTokens(60),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	chA, err := fl.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); fl.Stats().Engines[0].Admitted < 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("fleet never admitted the runner")
		}
	}
	chB, err := fl.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{4, 5, 6}, MaxNew: 6})
	if err != nil {
		t.Fatal(err)
	}
	if toks, terr := drainStream(t, chB); len(toks) != 0 || !errors.Is(terr, rethinkkv.ErrDeadlineExceeded) {
		t.Fatalf("default-deadline request: %d tokens, err %v, want ErrDeadlineExceeded", len(toks), terr)
	}
	if toks, terr := drainStream(t, chA); terr != nil || len(toks) != 60 {
		t.Fatalf("started runner: %d tokens, err %v; started requests are never shed", len(toks), terr)
	}
	if err := fl.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := fl.Stats().Engines[0]; st.Shed != 1 || st.Completed != 1 {
		t.Fatalf("Shed/Completed = %d/%d, want 1/1", st.Shed, st.Completed)
	}
}

// TestServerPanicFailsTyped: an injected step panic must surface on the
// facade as ErrEngineFailed — on the live stream's terminal token, on
// Failed(), and on later Submits — instead of crashing the process.
func TestServerPanicFailsTyped(t *testing.T) {
	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(5),
		rethinkkv.WithFaults(rethinkkv.FaultPlan{StepPanics: map[int]int{0: 3}}),
		rethinkkv.WithMaxNewTokens(12),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ch, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	toks, terr := drainStream(t, ch)
	if !errors.Is(terr, rethinkkv.ErrEngineFailed) {
		t.Fatalf("stream terminal err = %v, want ErrEngineFailed", terr)
	}
	if len(toks) >= 12 {
		t.Fatal("stream completed despite the injected panic")
	}
	if ferr := srv.Failed(); !errors.Is(ferr, rethinkkv.ErrEngineFailed) {
		t.Fatalf("Failed() = %v, want ErrEngineFailed", ferr)
	}
	if _, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{4}}); !errors.Is(err, rethinkkv.ErrEngineFailed) {
		t.Fatalf("submit after failure: %v, want ErrEngineFailed", err)
	}
	if err := srv.Drain(context.Background()); !errors.Is(err, rethinkkv.ErrEngineFailed) {
		t.Fatalf("drain after failure: %v, want ErrEngineFailed", err)
	}
}

// TestFleetFailoverBitIdenticalFacade kills one engine of a fleet mid-decode
// and pins the public contract: every stream completes with exactly the
// tokens a fault-free fleet of the same size produces (failover is replay,
// not approximation), and FleetStats reports the failure and re-homings.
func TestFleetFailoverBitIdenticalFacade(t *testing.T) {
	prompts := [][]int{
		{1, 2, 3, 4, 5},
		{100, 200, 300},
		{42},
		{9, 8, 7, 6},
	}

	serve := func(t *testing.T, engines, maxNew int, panics map[int]int) [][]int {
		t.Helper()
		opts := []rethinkkv.Option{rethinkkv.WithSeed(5), rethinkkv.WithMaxNewTokens(maxNew)}
		if panics != nil {
			opts = append(opts, rethinkkv.WithFaults(rethinkkv.FaultPlan{StepPanics: panics}))
		}
		fl, err := rethinkkv.NewFleet(engines, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		chans := make([]<-chan rethinkkv.Token, len(prompts))
		for i, prompt := range prompts {
			ch, err := fl.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			chans[i] = ch
		}
		out := make([][]int, len(prompts))
		for i, ch := range chans {
			toks, terr := drainStream(t, ch)
			if terr != nil {
				t.Fatalf("request %d terminated with %v", i, terr)
			}
			out[i] = toks
		}
		if err := fl.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if t.Failed() {
			t.FailNow()
		}
		if st := fl.Stats(); panics != nil {
			if st.EngineFailures != len(panics) {
				t.Fatalf("EngineFailures = %d, want %d", st.EngineFailures, len(panics))
			}
			if st.FailedOver == 0 {
				t.Fatal("no request failed over")
			}
		}
		return out
	}

	for _, tc := range []struct {
		name            string
		engines, maxNew int
		panics          map[int]int // engine -> iteration it dies at
	}{
		{"2 engines, engine 0 dies", 2, 12, map[int]int{0: 5}},
		{"3 engines, engine 1 dies", 3, 24, map[int]int{1: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := serve(t, tc.engines, tc.maxNew, nil)
			got := serve(t, tc.engines, tc.maxNew, tc.panics)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("request %d token %d: %d != fault-free %d", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// TestFaultOptionValidation: the new options reject nonsense values with
// ErrInvalidOption on both constructors.
func TestFaultOptionValidation(t *testing.T) {
	if _, err := rethinkkv.NewServer(rethinkkv.WithMaxQueue(-1)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewServer(WithMaxQueue(-1)): %v, want ErrInvalidOption", err)
	}
	if _, err := rethinkkv.NewServer(rethinkkv.WithAdmissionTimeout(-time.Second)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewServer(WithAdmissionTimeout(-1s)): %v, want ErrInvalidOption", err)
	}
	if _, err := rethinkkv.NewFleet(2, rethinkkv.WithMaxQueue(-1)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewFleet(WithMaxQueue(-1)): %v, want ErrInvalidOption", err)
	}
	if _, err := rethinkkv.NewFleet(2, rethinkkv.WithAdmissionTimeout(-time.Second)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewFleet(WithAdmissionTimeout(-1s)): %v, want ErrInvalidOption", err)
	}
}
