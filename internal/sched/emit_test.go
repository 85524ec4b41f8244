package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rethinkkv/internal/kvcache"
)

// TestLastTokenIsNeverCached: a request's MaxNew-th token is sent by the pass
// that decides it and never fed, so the request caches len(Prompt)+MaxNew-1
// tokens and runs MaxNew-1 decode lane-steps. A budget those tokens fill
// exactly is therefore enough — for Submit's never-fits check, and for
// admission, which reserves a first-decode page only when a decode step will
// run — and a MaxNew = 1 request completes on its final chunk.
func TestLastTokenIsNeverCached(t *testing.T) {
	const pt = 4
	for _, c := range []struct{ promptLen, maxNew int }{
		{8, 5},  // 12 cached tokens: three full pages, no fourth
		{12, 1}, // page-aligned prompt, no decode step, no reserved page
		{5, 1},
		{7, 2}, // one decode step, the one that fills the second page
	} {
		prompt := make([]int, c.promptLen)
		for i := range prompt {
			prompt[i] = (7*i + 3*c.promptLen) % 512
		}
		want := sequentialReference(t, [][]int{prompt}, c.maxNew)[0]
		cached := c.promptLen + c.maxNew - 1
		pages := kvcache.PagesFor(cached, pt)
		var e *Engine
		var ledgerErr error // written by the loop, read after Close
		e = newTestEngine(t, Config{MaxBatch: 2, PageTokens: pt, KVPages: pages, StepHook: func(int) {
			if err := checkLedger(e); err != nil && ledgerErr == nil {
				ledgerErr = err
			}
		}})
		ch, err := e.Submit(context.Background(), Request{Prompt: prompt, MaxNew: c.maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("prompt %d maxNew %d under a %d-page budget: %v", c.promptLen, c.maxNew, pages, err)
		}
		got := collect(t, ch)
		if len(got) != c.maxNew {
			t.Fatalf("prompt %d maxNew %d: %d tokens", c.promptLen, c.maxNew, len(got))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("prompt %d maxNew %d token %d: %d != sequential %d", c.promptLen, c.maxNew, j, got[j], want[j])
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = e.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		st := e.Stats()
		if lanes := st.BudgetTokens - c.promptLen; lanes != c.maxNew-1 {
			t.Errorf("prompt %d maxNew %d: %d decode lane-steps, want %d", c.promptLen, c.maxNew, lanes, c.maxNew-1)
		}
		// Sealed pages bound the cached tokens from below, the peak from above.
		if st.PrefixCachePages != cached/pt || st.PeakPages != pages || st.Preemptions != 0 {
			t.Errorf("prompt %d maxNew %d: %d pages sealed, peak %d, %d preemptions; want %d, %d, 0",
				c.promptLen, c.maxNew, st.PrefixCachePages, st.PeakPages, st.Preemptions, cached/pt, pages)
		}
		e.Close()
		if err := checkLedger(e); err != nil {
			t.Errorf("after Drain and Close: %v", err)
		}
		if ledgerErr != nil {
			t.Error(ledgerErr)
		}
	}
}

// deliveryProbe is a StepHook that looks, at the top of every iteration, at
// what is still buffered in the streams it watches: tokens sent through the
// previous iteration that no reader has been given. Counts, not clocks — a
// token is either in the buffer or it is not.
type deliveryProbe struct {
	gate chan struct{} // iteration 1 waits for it: every request is queued first
	iter atomic.Int64  // the iteration now running

	mu     sync.Mutex
	chans  []<-chan Token
	unread int // iterations that started with a sent token still buffered
}

func (p *deliveryProbe) watch(ch <-chan Token) {
	p.mu.Lock()
	p.chans = append(p.chans, ch)
	p.mu.Unlock()
}

func (p *deliveryProbe) hook(step int) {
	if step == 1 {
		<-p.gate
	}
	p.iter.Store(int64(step))
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ch := range p.chans {
		if len(ch) > 0 {
			p.unread++
			break
		}
	}
}

// check asserts that no iteration started with a token still buffered. A
// reader the loop yields to drains its stream and parks on it, so the next
// token is handed to it directly and never enters the buffer; a token is left
// there only when its reader has not run since the token before it. (That also
// absorbs the one scheduler tick in 61 on which Go serves the global queue
// first and runtime.Gosched returns at once.) Without the yield no reader
// runs until the runtime preempts the loop after 10 ms, and all but the first
// iterations start with the stream so far unread.
func (p *deliveryProbe) check(t *testing.T) {
	t.Helper()
	iters := int(p.iter.Load())
	p.mu.Lock()
	defer p.mu.Unlock()
	if iters < 64 {
		t.Fatalf("only %d iterations ran: too few to tell", iters)
	}
	if p.unread > 0 {
		t.Fatalf("%d of %d iterations started with a sent token unread", p.unread, iters)
	}
}

// TestDeliveryAtOneP runs the engine the way a one-core deployment does — loop,
// readers and submitters on one P — and checks that the loop hands the P over
// between iterations: at the top of iteration n+1 every reader has taken every
// token sent through iteration n, and a Submit from a goroutine that became
// runnable during iteration n is admitted in iteration n+1.
func TestDeliveryAtOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	// start builds an engine under a probe; onStep, if not nil, runs after it.
	start := func(t *testing.T, cfg Config, onStep func(step int)) (*Engine, *deliveryProbe) {
		p := &deliveryProbe{gate: make(chan struct{})}
		cfg.StepHook = func(step int) {
			p.hook(step)
			if onStep != nil {
				onStep(step)
			}
		}
		return newTestEngine(t, cfg), p
	}
	// stream submits a request, has the probe watch it, and reads it on a
	// goroutine of its own; the returned channel yields the token count.
	stream := func(t *testing.T, e *Engine, p *deliveryProbe, req Request) <-chan int {
		req.Arrival = -1
		ch, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		p.watch(ch)
		n := make(chan int, 1)
		go func() {
			got := 0
			for range ch {
				got++
			}
			n <- got
		}()
		return n
	}
	long := make([]int, 64)
	for i := range long {
		long[i] = (5*i + 1) % 512
	}

	t.Run("lone request", func(t *testing.T) {
		e, p := start(t, Config{MaxNew: 200}, nil)
		n := stream(t, e, p, Request{Prompt: []int{1, 2, 3}})
		close(p.gate)
		if got := <-n; got != 200 {
			t.Fatalf("%d tokens, want 200", got)
		}
		p.check(t)
	})

	t.Run("chunks packed beside it", func(t *testing.T) {
		e, p := start(t, Config{MaxNew: 150, PrefillChunk: 4}, nil)
		a := stream(t, e, p, Request{ID: 0, Prompt: []int{1, 2, 3}})
		b := stream(t, e, p, Request{ID: 1, Prompt: long})
		close(p.gate)
		if a, b := <-a, <-b; a != 150 || b != 150 {
			t.Fatalf("%d and %d tokens, want 150 each", a, b)
		}
		p.check(t)
		if st := e.Stats(); st.MixedSteps < len(long)/4-1 {
			t.Fatalf("MixedSteps = %d: the long prompt's chunks did not share iterations with the decoder", st.MixedSteps)
		}
	})

	t.Run("submit", func(t *testing.T) {
		const every, signals = 8, 20
		// The hook makes the submitter runnable during iteration k; it can run
		// no earlier than the yield after it, so its one-token request is
		// admitted, prefilled and answered in iteration k+1 and read in the
		// yield after that.
		wake := make(chan int64, signals) // never blocks the loop, even if nothing reads until the end
		e, p := start(t, Config{MaxNew: every * (signals + 2)}, func(step int) {
			if step%every == 0 && step/every <= signals {
				wake <- int64(step)
			}
		})
		n := stream(t, e, p, Request{ID: 0, Prompt: []int{1, 2, 3}})
		lateBy := make(chan int64, signals)
		go func() {
			defer close(lateBy)
			for i := 1; i <= signals; i++ {
				k := <-wake
				ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: []int{4, 5, i}, MaxNew: 1, Arrival: -1})
				if err != nil {
					t.Error(err)
					return
				}
				<-ch
				lateBy <- p.iter.Load() - (k + 1)
			}
		}()
		close(p.gate)
		late, worst := 0, int64(0)
		for d := range lateBy {
			if d != 0 {
				late++
			}
			worst = max(worst, d)
		}
		<-n
		// Here the one tick in 61 (see deliveryProbe.check) shows: the
		// submitter it passes over runs one yield, so one iteration, later.
		if late > 2+signals/10 || worst > 1 {
			t.Fatalf("%d of %d requests answered after the iteration that followed their Submit, at worst %d late; want at most %d and 1",
				late, signals, worst, 2+signals/10)
		}
		p.check(t)
	})
}
