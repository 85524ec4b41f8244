package sched

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rethinkkv/internal/model"
)

// TestEngineRecyclesKVMemory serves one 20-request list twice through one
// engine and requires the second pass to allocate less than 5 % of the KV
// bytes it appended: once the first pass has grown the engine's page pool to
// its working set, a request's pages, page tables and page handles come out of
// the pool and go back to it instead of to the garbage collector. What the
// second pass does allocate is per request (its state, its stream's buffer,
// its session), not per token. The test runs on one P, as benchmark/ serves.
func TestEngineRecyclesKVMemory(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pageTokens, maxNew = 16, 32
	m := model.New(model.Small(), seed)
	shape := m.CacheShape()
	prompts := make([][]int, 20)
	for i := range prompts {
		prompts[i] = make([]int, 20+7*i)
		for j := range prompts[i] {
			prompts[i][j] = (31*i + 7*j + 5) % 1024
		}
	}
	e, err := New(m, Config{MaxBatch: 8, PageTokens: pageTokens})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	serve := func() {
		chans := make([]<-chan Token, len(prompts))
		for i, p := range prompts {
			ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: p, MaxNew: maxNew, Arrival: -1})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			chans[i] = ch
		}
		for _, ch := range chans {
			for range ch {
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	serve()
	var before, after runtime.MemStats
	st0 := e.Stats()
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	st1 := e.Stats()
	tokens := st1.BudgetTokens - st0.BudgetTokens
	kvBytes := uint64(tokens * shape.Layers * 2 * shape.KVHeads * shape.HeadDim * 4)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("second pass: %d tokens appended (%d KV bytes), %d bytes allocated (%.2f%%)", tokens, kvBytes, alloc, 100*float64(alloc)/float64(kvBytes))
	if tokens == 0 || alloc*20 >= kvBytes {
		t.Errorf("second pass allocated %d bytes for %d KV bytes appended (%d tokens): want under 5%%", alloc, kvBytes, tokens)
	}
}
