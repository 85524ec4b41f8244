package rethinkkv_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rethinkkv"
)

// servingBackend is what Server and Fleet share, for the goroutine tests.
type servingBackend interface {
	Submit(context.Context, rethinkkv.ServeRequest) (<-chan rethinkkv.Token, error)
	Drain(context.Context) error
	Close()
}

// settledGoroutines reads runtime.NumGoroutine once earlier tests' goroutines
// have finished winding down: the count must hold still for 20 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 4; {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, same = m, 0
		} else {
			same++
		}
	}
	return n
}

// waitGoroutines polls until at most want goroutines are left.
func waitGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d:\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineOutlivesClose serves a handful of requests to completion on
// a Server and on a Fleet of two, and requires Close to leave no goroutine
// behind: engine loops, stream forwarders and context watchers all gone.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (servingBackend, error)
	}{
		{"server", func() (servingBackend, error) { return rethinkkv.NewServer(rethinkkv.WithMaxNewTokens(6)) }},
		{"fleet", func() (servingBackend, error) { return rethinkkv.NewFleet(2, rethinkkv.WithMaxNewTokens(6)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledGoroutines()
			b, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var streams []<-chan rethinkkv.Token
			for i := 0; i < 6; i++ {
				ch, err := b.Submit(ctx, rethinkkv.ServeRequest{Prompt: []int{i + 1, i + 2, i + 3}})
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, ch)
			}
			for _, ch := range streams {
				if toks, err := drainStream(t, ch); err != nil || len(toks) != 6 {
					t.Fatalf("stream: %d tokens, err %v", len(toks), err)
				}
			}
			if err := b.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			b.Close()
			waitGoroutines(t, "after Close", base)
		})
	}
}

// TestServerStreamIsTheEnginesChannel counts goroutines while streams are
// live: a Server runs its engine loop and nothing per stream (Submit hands out
// the engine's own channel; a request's context is watched by
// context.AfterFunc, which starts no goroutine until it fires), a Fleet its
// engine loops plus one forwarder per stream — the pool's, which splices
// failover and migration hops. Each engine iteration is slowed to 50 ms so the
// streams outlive the count.
func TestServerStreamIsTheEnginesChannel(t *testing.T) {
	const streams = 4
	slow := rethinkkv.WithFaults(rethinkkv.FaultPlan{StepDelays: map[int]time.Duration{0: 50 * time.Millisecond, 1: 50 * time.Millisecond}})
	for _, tc := range []struct {
		name string
		open func() (servingBackend, error)
		live int // goroutines beyond the baseline while the streams run
	}{
		{"server", func() (servingBackend, error) { return rethinkkv.NewServer(slow, rethinkkv.WithMaxNewTokens(64)) }, 1},
		{"fleet", func() (servingBackend, error) { return rethinkkv.NewFleet(2, slow, rethinkkv.WithMaxNewTokens(64)) }, 2 + streams},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledGoroutines()
			b, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var chans []<-chan rethinkkv.Token
			for i := 0; i < streams; i++ {
				ch, err := b.Submit(ctx, rethinkkv.ServeRequest{Prompt: []int{i + 1, i + 2, i + 3}})
				if err != nil {
					t.Fatal(err)
				}
				chans = append(chans, ch)
			}
			if got := runtime.NumGoroutine() - base; got != tc.live {
				t.Errorf("%d live streams run on %d goroutines, want %d", streams, got, tc.live)
			}
			for _, ch := range chans {
				select {
				case tok, open := <-ch:
					if !open || tok.Err != nil {
						t.Fatalf("stream ended while the goroutines were counted (open %v, err %v)", open, tok.Err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("no token")
				}
			}
			cancel()
			for _, ch := range chans {
				drainStream(t, ch)
			}
			b.Close()
			waitGoroutines(t, "after Close", base)
		})
	}
}
