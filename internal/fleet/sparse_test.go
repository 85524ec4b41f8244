package fleet

import (
	"context"
	"testing"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
)

// fleetSparseReference mirrors the sched package's sparse ground truth:
// dense prefill, then greedy sparse decode at topK, through a one-lane
// core.Session. Migrated or preempted sparse serving must reproduce these
// streams.
func fleetSparseReference(t *testing.T, prompts [][]int, maxNew, topK, pageTokens int) [][]int {
	t.Helper()
	m := model.New(model.Tiny(), seed)
	out := make([][]int, len(prompts))
	for i, prompt := range prompts {
		cache := kvcache.NewPagePool(m.CacheShape(), pageTokens, 0, 0, true).NewCache()
		s, err := core.NewSession(m, cache, prompt) // topK is 0 here: prefill stays dense
		if err != nil {
			t.Fatal(err)
		}
		m.SetSparseTopK(topK)
		out[i] = s.Decode(maxNew)
		m.SetSparseTopK(0)
	}
	return out
}

// TestSparseMigrationBitIdentical is the cross-engine replay gate: requests
// pinned to a page-starved sparse engine migrate to an idle peer, which
// re-advances the emitted suffix through sparse decode (reqState.replay) —
// every stream, migrated or not, must stay bit-identical to an
// unconstrained sparse run.
func TestSparseMigrationBitIdentical(t *testing.T) {
	prompts := make([][]int, 4)
	for i := range prompts {
		p := make([]int, 17+5*i)
		for j := range p {
			p[j] = (j*7 + i*31 + 3) % 512
		}
		prompts[i] = p
	}
	const maxNew, topK, pageTokens = 16, 2, 4
	want := fleetSparseReference(t, prompts, maxNew, topK, pageTokens)

	m := model.New(model.Tiny(), seed)
	m.SetSparseTopK(topK)
	p, err := New(m, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Engine:  sched.Config{MaxBatch: 4, PageTokens: pageTokens, KVPages: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAndCheckPages(t, p, m) })
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
		got[i] = collect(t, ch)
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "sparse migrated")

	st := p.Stats()
	if st.Migrations == 0 {
		t.Fatal("budget never forced a migration; test is vacuous")
	}
	var sel, tot int64
	for _, es := range st.Engines {
		sel += es.SparsePagesSelected
		tot += es.SparsePagesTotal
	}
	if sel == 0 || sel >= tot {
		t.Fatalf("fleet sparse counters (sel=%d, tot=%d) show no real sparsity", sel, tot)
	}
}
