package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

// TestChunkedPrefillMatchesSequential is the interleaving acceptance gate:
// prompts long enough to span many chunks, served while other requests
// decode, must emit per-request token streams bit-identical to sequential
// decoding — across chunk sizes including 1 (token-at-a-time through the
// fused plane) and a non-divisor of the prompt lengths. The long prompt is
// admitted in the first batch beside two short ones: they prefill in the pass
// that carries its first chunk and decode through the rest of its prefill.
func TestChunkedPrefillMatchesSequential(t *testing.T) {
	long := make([]int, 100)
	for i := range long {
		long[i] = (i*37 + 3) % 512
	}
	short := testPrompts()
	prompts := append(append(short[:2:2], long), short[2:]...)
	const maxNew = 12
	want := sequentialReference(t, prompts, maxNew)

	for _, chunkSize := range []int{1, 7, 32} {
		got, e := runEngine(t, Config{MaxBatch: 3, PageTokens: 8, PrefillChunk: chunkSize}, prompts, maxNew, 0)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("chunk=%d request %d: %d tokens, want %d", chunkSize, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("chunk=%d request %d token %d: %d != sequential %d", chunkSize, i, j, got[i][j], want[i][j])
				}
			}
		}
		st := e.Stats()
		if min := (len(long) + chunkSize - 1) / chunkSize; st.PrefillChunks < min {
			t.Fatalf("chunk=%d: PrefillChunks = %d, want >= %d", chunkSize, st.PrefillChunks, min)
		}
		if st.MixedSteps == 0 {
			t.Fatalf("chunk=%d: no iteration ever carried decode and prefill together", chunkSize)
		}
	}
}

// TestInterleavedPrefillKeepsDecodeFlowing pins the property the chunk
// plane exists for: while a 512-token prompt prefills, already-running
// decode streams keep emitting tokens — one per scheduling iteration — so
// the long arrival never stalls them for a whole prompt's forward cost.
// Counted structurally (tokens emitted during the prefill window), not by
// wall-clock, so the test is load-insensitive.
func TestInterleavedPrefillKeepsDecodeFlowing(t *testing.T) {
	const chunk = 16
	const decoders = 4
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{MaxBatch: decoders + 1, PageTokens: 16, PrefillChunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Start the decoders and count their deliveries as they stream.
	counts := make([]atomic.Int64, decoders)
	done := make(chan struct{}, decoders)
	for i := 0; i < decoders; i++ {
		ch, err := e.Submit(context.Background(), Request{
			ID: i, Prompt: []int{i + 1, i + 2, i + 3}, MaxNew: 400, Arrival: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, ch <-chan Token) {
			for range ch {
				counts[i].Add(1)
			}
			done <- struct{}{}
		}(i, ch)
	}
	// Wait until every decoder has produced at least one token.
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < decoders; i++ {
		for counts[i].Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("decoders never started")
			}
			time.Sleep(time.Millisecond)
		}
	}

	longPrompt := make([]int, 512)
	for i := range longPrompt {
		longPrompt[i] = (i*13 + 7) % 512
	}
	before := make([]int64, decoders)
	for i := range before {
		before[i] = counts[i].Load()
	}
	longCh, err := e.Submit(context.Background(), Request{ID: 99, Prompt: longPrompt, MaxNew: 4, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The long prompt's first token marks the end of its prefill window:
	// 512/16 = 32 chunk iterations, each of which must also have advanced
	// every live decoder.
	select {
	case <-longCh:
	case <-time.After(30 * time.Second):
		t.Fatal("long prompt produced no token")
	}
	for i := 0; i < decoders; i++ {
		if delta := counts[i].Load() - before[i]; delta < 16 {
			t.Fatalf("decoder %d emitted only %d tokens while the 512-token prompt prefilled (32 chunks); it stalled", i, delta)
		}
	}
	st := e.Stats()
	if min := len(longPrompt) / chunk; st.PrefillChunks < min {
		t.Fatalf("PrefillChunks = %d, want >= %d", st.PrefillChunks, min)
	}
	if st.MixedSteps < 16 {
		t.Fatalf("MixedSteps = %d: prefill barely interleaved with decode", st.MixedSteps)
	}
	// Let the run wind down cleanly (streams are buffered; Close would
	// truncate them and fail the drain).
	for range longCh {
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < decoders; i++ {
		<-done
	}
}

// TestPreemptionMidPrefillRecomputes forces the page budget to evict a
// request in the middle of its chunked prefill and checks the recompute:
// the victim's eventual stream must still be bit-identical to sequential
// decoding, and the engine must report a mid-prefill preemption.
func TestPreemptionMidPrefillRecomputes(t *testing.T) {
	short := []int{1, 2}
	long := make([]int, 30)
	for i := range long {
		long[i] = (i*11 + 5) % 512
	}
	prompts := [][]int{short, long}

	// Sequential references at each request's own cap.
	m := model.New(model.Tiny(), seed)
	want := make([][]int, len(prompts))
	maxNews := []int{10, 4}
	for i, prompt := range prompts {
		s, err := core.NewSession(m, kvcache.NewFull(m.CacheShape()), prompt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.Decode(maxNews[i])
	}

	// Budget arithmetic (PageTokens=4, KVPages=9): the short request's
	// prompt takes 1 page, the long prompt needs 8, so both admit
	// (1+8 = 9) — both predict one token, so admission sees no growth. The
	// long prompt needs ceil(30/4) = 8 chunk iterations at
	// PrefillChunk=4; the short decoder opens its second page at position
	// 4 — a handful of iterations in, while the long request is still
	// mid-prefill — which overflows the budget and evicts the newest
	// arrival (FCFS): the long, still-prefilling request.
	// Iteration 1 waits for both Submits: the trace above assumes the two
	// requests arrive together, however fast a step is.
	e, _, release := gatedEngine(t, Config{MaxBatch: 2, PageTokens: 4, KVPages: 9, PrefillChunk: 4})
	chans := make([]<-chan Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompt, MaxNew: maxNews[i], Predicted: 1, Arrival: -1})
		if err != nil {
			release()
			t.Fatal(err)
		}
		chans[i] = ch
	}
	release()
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != sequential %d (after mid-prefill preemption)", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := e.Stats()
	if st.Preemptions == 0 {
		t.Fatal("budget never forced a preemption; test is vacuous")
	}
	if st.PrefillPreempted == 0 {
		t.Fatal("no preemption landed mid-prefill; test is vacuous")
	}
	if st.PeakPages > 9 {
		t.Fatalf("PeakPages %d exceeded budget", st.PeakPages)
	}
}

// TestNegativePrefillChunkRejected covers config validation.
func TestNegativePrefillChunkRejected(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	if _, err := New(m, Config{PrefillChunk: -1}); err == nil {
		t.Fatal("negative prefill chunk accepted")
	}
}
