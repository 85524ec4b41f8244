package sched

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rethinkkv/internal/faults"
	"rethinkkv/internal/model"
)

// packPrompts returns k prompts each several chunks long (at PrefillChunk 8),
// with distinct contents so cross-prompt cache mixups surface as stream
// mismatches rather than silent agreement.
func packPrompts(k int) [][]int {
	out := make([][]int, k)
	for i := range out {
		p := make([]int, 20+7*i)
		for j := range p {
			p[j] = (j*5 + i*17 + 2) % 512
		}
		out[i] = p
	}
	return out
}

// TestTokenBudgetPackedMatchesSequential is the tentpole equivalence gate:
// for k prompts arriving together and a per-iteration token budget anywhere
// from smaller than one chunk to generous enough to pack every prompt's
// chunk at once, the streams are bit-identical to sequential decoding.
// Packing only reorders which weight pass carries which chunk — each chunk
// attends over its own cache, so the budget must be invisible in the output.
func TestTokenBudgetPackedMatchesSequential(t *testing.T) {
	const maxNew, chunk = 12, 8
	for _, k := range []int{2, 4} {
		prompts := packPrompts(k)
		want := sequentialReference(t, prompts, maxNew)
		// Budgets: 6 < chunk (chunks shrink to fit), ~exact (decode lanes +
		// one chunk), and generous (every prompt packs a full chunk per step).
		for _, budget := range []int{6, k + chunk, 128} {
			t.Run(fmt.Sprintf("k=%d/budget=%d", k, budget), func(t *testing.T) {
				cfg := Config{MaxBatch: k + 2, PageTokens: 4, PrefillChunk: chunk, TokenBudget: budget}
				got, e := runEngine(t, cfg, prompts, maxNew, 0)
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("request %d token %d: %d != sequential %d", i, j, got[i][j], want[i][j])
						}
					}
				}
				st := e.Stats()
				if budget >= 128 && k >= 2 && st.PackedChunks == 0 {
					t.Fatalf("generous budget with %d simultaneous prompts packed no chunks", k)
				}
				if st.BudgetTokens == 0 {
					t.Fatal("BudgetTokens stayed 0 across a served trace")
				}
			})
		}
	}
}

// TestTokenBudgetQuantPacked pins packing against the quantized cache plane:
// an int8/int4 engine with a generous budget must emit exactly the streams
// of the same-bits engine at the default budget (one full chunk a pass, plus
// whatever the decode lanes leave). Quantisation changes the
// logits, so the reference is the same quantised pipeline, not fp32.
func TestTokenBudgetQuantPacked(t *testing.T) {
	prompts := packPrompts(3)
	const maxNew, chunk = 10, 8
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			base := Config{MaxBatch: 5, PageTokens: 4, PrefillChunk: chunk, KVQuantBits: bits}
			want, _ := runEngine(t, base, prompts, maxNew, 0)
			packed := base
			packed.TokenBudget = 96
			got, e := runEngine(t, packed, prompts, maxNew, 0)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("request %d token %d: %d != default-budget %d", i, j, got[i][j], want[i][j])
					}
				}
			}
			if e.Stats().PackedChunks == 0 {
				t.Fatal("generous budget packed no chunks")
			}
		})
	}
}

// TestTokenBudgetSparsePacked pins packing under sparse decode with key
// summaries: the budget only repacks dense prefill chunks, so streams must
// match the model-level sparse reference (dense prefill + topK decode)
// bit for bit, for fp32 and int8 pages.
func TestTokenBudgetSparsePacked(t *testing.T) {
	prompts := longPrompts()
	const maxNew, topK, pageTokens = 12, 2, 4
	for _, bits := range []int{0, 8} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			want := sparseReference(t, prompts, maxNew, topK, pageTokens, bits)
			cfg := Config{MaxBatch: 6, PageTokens: pageTokens, PrefillChunk: 6, TokenBudget: 64, KVQuantBits: bits}
			got, e := runSparseEngine(t, cfg, topK, prompts, maxNew, 0)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("request %d token %d: %d != sparse reference %d", i, j, got[i][j], want[i][j])
					}
				}
			}
			if e.Stats().PackedChunks == 0 {
				t.Fatal("generous budget packed no chunks")
			}
		})
	}
}

// gatedEngine builds an engine whose scheduling loop blocks at the top of
// iteration 1 until the returned release func runs. Submitting one request,
// waiting for entered, submitting the rest, then releasing makes the whole
// admission/packing/preemption trace deterministic: every later request is
// already queued when iteration 1 executes.
func gatedEngine(t *testing.T, cfg Config) (*Engine, <-chan struct{}, func()) {
	t.Helper()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	cfg.StepHook = func(step int) {
		if step == 1 {
			once.Do(func() { close(entered) })
			<-gate
		}
	}
	e := newTestEngine(t, cfg)
	return e, entered, func() { close(gate) }
}

// TestTokenBudgetPreemptMidPrefillPacked pins deterministic preemption of
// one of several in-flight prefills. Three requests fill the page budget
// exactly; the short one finishes prefill first and its decode page-open
// forces an eviction while both long prompts are still packing chunks. The
// FCFS victim is the newest arrival — a mid-prefill prompt — which must
// resume on re-admission with bit-identical streams.
func TestTokenBudgetPreemptMidPrefillPacked(t *testing.T) {
	short := []int{1, 2}
	long1 := make([]int, 28)
	long2 := make([]int, 24)
	for i := range long1 {
		long1[i] = (i*3 + 5) % 512
	}
	for i := range long2 {
		long2[i] = (i*7 + 11) % 512
	}
	prompts := [][]int{short, long1, long2}
	const maxNew = 6
	want := sequentialReference(t, prompts, maxNew)

	// Pages at admission: short 1, long1 7+1 (28%4==0 reserves the first
	// decode page), long2 6+1 — exactly the 16-page budget, which every
	// request's one-token prediction lets admission fill. Short's decode
	// opens a page at position 4, forcing one eviction.
	cfg := Config{MaxBatch: 3, PageTokens: 4, KVPages: 16, PrefillChunk: 4, TokenBudget: 32}
	e, entered, release := gatedEngine(t, cfg)

	chans := make([]<-chan Token, len(prompts))
	submit := func(i int) {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompts[i], MaxNew: maxNew, Predicted: 1, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	submit(0)
	<-entered // short admitted, loop gated before its prefill step
	submit(1)
	submit(2)
	release()

	for i, ch := range chans {
		got := collect(t, ch)
		if len(got) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got), len(want[i]))
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != sequential %d", i, j, got[j], want[i][j])
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	if st.PrefillPreempted < 1 {
		t.Fatalf("PrefillPreempted = %d, want >= 1 (a mid-prefill prompt must have been the victim)", st.PrefillPreempted)
	}
	if st.PackedChunks == 0 {
		t.Fatal("both long prompts were mid-prefill together; PackedChunks stayed 0")
	}
	if st.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", st.Completed)
	}
}

// newTestEngine is runEngine's fixture half: build the engine without
// submitting anything, so tests control submission order themselves.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(model.New(model.Tiny(), seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestTokenBudgetDeterministicCounters pins satellite-3 semantics: with the
// admission point fixed by the step gate, two identical runs must agree on
// every lifetime counter — PrefillChunks per chunk, MixedSteps per
// chunk+decode iteration, PackedChunks, BudgetTokens — and on every stream.
// A packing heuristic that consulted wall time or map order would diverge.
func TestTokenBudgetDeterministicCounters(t *testing.T) {
	prompts := packPrompts(4)
	const maxNew = 8
	run := func() (Stats, [][]int) {
		cfg := Config{MaxBatch: 4, PageTokens: 4, PrefillChunk: 4, TokenBudget: 16}
		e, entered, release := gatedEngine(t, cfg)
		chans := make([]<-chan Token, len(prompts))
		for i, p := range prompts {
			ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: p, MaxNew: maxNew, Arrival: -1})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			chans[i] = ch
			if i == 0 {
				<-entered
			}
		}
		release()
		got := make([][]int, len(prompts))
		for i, ch := range chans {
			got[i] = collect(t, ch)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return e.Stats(), got
	}
	st1, out1 := run()
	st2, out2 := run()
	if st1 != st2 {
		t.Fatalf("counters diverged across identical runs:\n  run1 %+v\n  run2 %+v", st1, st2)
	}
	if st1.PackedChunks == 0 || st1.MixedSteps == 0 || st1.PrefillChunks == 0 {
		t.Fatalf("expected packing activity, got %+v", st1)
	}
	for i := range out1 {
		if len(out1[i]) != len(out2[i]) {
			t.Fatalf("request %d: stream lengths diverged %d vs %d", i, len(out1[i]), len(out2[i]))
		}
		for j := range out1[i] {
			if out1[i][j] != out2[i][j] {
				t.Fatalf("request %d token %d diverged: %d vs %d", i, j, out1[i][j], out2[i][j])
			}
		}
	}
}

// TestStatsRaceDuringPacking is the satellite-1 regression: Stats and View
// hammered from other goroutines while the engine packs budget chunks and
// decodes. The PeakPages update used to run in a second mu acquisition in
// the middle of the scheduling loop; folded into the post-step critical
// section, the race detector must stay quiet and snapshots stay coherent.
func TestStatsRaceDuringPacking(t *testing.T) {
	prompts := packPrompts(4)
	const maxNew = 10
	cfg := Config{MaxBatch: 4, PageTokens: 4, KVPages: 64, PrefillChunk: 4, TokenBudget: 16}
	e := newTestEngine(t, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.Stats()
				if st.PeakPages < 0 {
					t.Error("negative PeakPages snapshot")
					return
				}
				v := e.View()
				if v.UsedPages > 64 {
					t.Errorf("UsedPages %d above the 64-page budget", v.UsedPages)
					return
				}
			}
		}()
	}

	chans := make([]<-chan Token, len(prompts))
	for i, p := range prompts {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: p, MaxNew: maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	for _, ch := range chans {
		collect(t, ch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); st.PeakPages == 0 {
		t.Fatal("PeakPages never recorded page usage")
	}
}

// TestShedAbandonedStreamDoesNotStall is the satellite-2 regression: a
// queued request whose consumer walked away (ctx cancelled, channel never
// read) must not stall the scheduling loop when the deadline-shed or cancel
// path terminates its stream. The shed send used to be a blocking channel
// send; all terminal sends are now guarded, so the engine must keep serving
// and Drain must return.
func TestShedAbandonedStreamDoesNotStall(t *testing.T) {
	inj := faults.New()
	inj.Delay(0, time.Millisecond) // ~40ms of decode, far past the 2ms deadlines
	cfg := Config{MaxBatch: 1, PageTokens: 8, StepHook: inj.StepHook(0)}
	e := newTestEngine(t, cfg)

	chA, err := e.Submit(context.Background(), Request{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 40, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, e, 1) // A holds the only slot; everything below queues

	// B: consumer abandons the stream, then its TTFT deadline passes while
	// still queued. The shed must terminate the unread stream without
	// blocking the loop.
	ctxB, cancelB := context.WithCancel(context.Background())
	chB, err := e.Submit(ctxB, Request{
		ID: 1, Prompt: []int{4, 5, 6}, MaxNew: 6, Arrival: -1, Deadline: e.Now() + 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	// C: deadline passes with the stream simply never read — the pure
	// abandoned-consumer shape of the old blocking-send hazard.
	chC, err := e.Submit(context.Background(), Request{
		ID: 2, Prompt: []int{7, 8}, MaxNew: 6, Arrival: -1, Deadline: e.Now() + 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelB() // consumer gone before the engine ever touches B

	// The runner must finish regardless of the two dead streams.
	if toks, terr := collectErr(t, chA); terr != nil || len(toks) != 40 {
		t.Fatalf("runner: %d tokens, err %v; dead queued streams must not stall it", len(toks), terr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Both abandoned streams must be closed (terminal token optional —
	// cancellation may race the shed — but closure is mandatory).
	drainClosed := func(name string, ch <-chan Token) {
		select {
		case _, ok := <-ch:
			if ok {
				for range ch {
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s stream never closed", name)
		}
	}
	drainClosed("cancelled", chB)
	drainClosed("shed", chC)
	st := e.Stats()
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
	if st.Shed+st.Cancelled != 2 {
		t.Fatalf("Shed+Cancelled = %d+%d, want 2 abandoned streams retired", st.Shed, st.Cancelled)
	}
}

// TestNegativeTokenBudgetRejected pins config validation.
func TestNegativeTokenBudgetRejected(t *testing.T) {
	_, err := New(model.New(model.Tiny(), seed), Config{MaxBatch: 2, PageTokens: 8, TokenBudget: -1})
	if err == nil || !strings.Contains(err.Error(), "token budget") {
		t.Fatalf("New with TokenBudget -1: err = %v, want negative-token-budget error", err)
	}
}
