package sched

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
)

// sparseReference decodes every prompt through the model directly with the
// engine's sparse semantics — dense prefill, sparse decode at topK — giving
// the ground-truth streams a sparse engine must reproduce regardless of
// batching, preemption, replay, or prefix reuse.
func sparseReference(t *testing.T, prompts [][]int, maxNew, topK, pageTokens, bits int) [][]int {
	t.Helper()
	m := model.New(model.Tiny(), seed)
	ws := m.NewWorkspace()
	out := make([][]int, len(prompts))
	for i, prompt := range prompts {
		cache := kvcache.NewPagedKVQuant(m.CacheShape(), pageTokens, 0, bits)
		cache.EnableKeySummaries()
		sr := m.PrefillInto(ws, prompt, cache) // topK is 0 here: prefill stays dense
		m.SetSparseTopK(topK)
		next := tensor.Argmax(sr.Logits)
		toks := make([]int, 0, maxNew)
		pos := len(prompt)
		for len(toks) < maxNew {
			toks = append(toks, next)
			sr = m.ForwardInto(ws, next, pos, cache)
			next = tensor.Argmax(sr.Logits)
			pos++
		}
		m.SetSparseTopK(0)
		out[i] = toks
	}
	return out
}

// runSparseEngine is runEngine over a model with sparse decode enabled.
func runSparseEngine(t *testing.T, cfg Config, topK int, prompts [][]int, maxNew int) ([][]int, *Engine) {
	t.Helper()
	m := model.New(model.Tiny(), seed)
	m.SetSparseTopK(topK)
	e, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	chans := make([]<-chan Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return got, e
}

// longPrompts returns prompts spanning enough pages (at PageTokens 4) that
// decode at topK 2 actually drops pages.
func longPrompts() [][]int {
	out := make([][]int, 4)
	for i := range out {
		p := make([]int, 17+5*i)
		for j := range p {
			p[j] = (j*7 + i*31 + 3) % 512
		}
		out[i] = p
	}
	return out
}

// TestSparseServingMatchesReference pins the serving contract: a sparse
// engine's streams are bit-identical to direct model-level sparse decode
// (dense prefill + topK decode), for fp32 and int8 pages, and the engine's
// page-selection counters record real sparsity.
func TestSparseServingMatchesReference(t *testing.T) {
	prompts := longPrompts()
	const maxNew, topK, pageTokens = 16, 2, 4
	for _, bits := range []int{0, 8} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			want := sparseReference(t, prompts, maxNew, topK, pageTokens, bits)
			cfg := Config{MaxBatch: 3, PageTokens: pageTokens, KVQuantBits: bits}
			got, e := runSparseEngine(t, cfg, topK, prompts, maxNew)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("request %d token %d: %d != reference %d", i, j, got[i][j], want[i][j])
					}
				}
			}
			st := e.Stats()
			if st.SparsePagesSelected == 0 || st.SparsePagesTotal == 0 {
				t.Fatal("sparse serving recorded no page selections")
			}
			if st.SparsePagesSelected > st.SparsePagesTotal {
				t.Fatalf("selected %d > resident %d", st.SparsePagesSelected, st.SparsePagesTotal)
			}
			if st.SparsePagesSelected == st.SparsePagesTotal {
				t.Fatal("selection never dropped a page; sparsity vacuous")
			}
		})
	}
}

// TestSparsePreemptionReplayMatchesReference is the replay acceptance gate:
// under a page budget tight enough to force preemption, a recomputed sparse
// request re-advances its emitted tokens through sparse decode (not dense
// prefill) and its stream stays bit-identical to an unconstrained run.
func TestSparsePreemptionReplayMatchesReference(t *testing.T) {
	prompts := longPrompts()
	const maxNew, topK, pageTokens = 16, 2, 4
	want := sparseReference(t, prompts, maxNew, topK, pageTokens, 0)
	// Largest request needs ceil((32+16)/4) = 12 pages; two concurrent
	// requests' worth plus slack forces eviction mid-decode.
	cfg := Config{MaxBatch: 4, PageTokens: pageTokens, KVPages: 20}
	got, e := runSparseEngine(t, cfg, topK, prompts, maxNew)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != reference %d (after preemption replay)", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := e.Stats()
	if st.Preemptions == 0 {
		t.Fatal("page budget never forced a preemption; test is vacuous")
	}
	if st.PeakPages > cfg.KVPages {
		t.Fatalf("PeakPages %d exceeded budget %d", st.PeakPages, cfg.KVPages)
	}
}

// TestSparseReplayHandoffDeterministic simulates a cross-engine migration by
// hand: a second sparse engine receives prompt+firstHalf with Replay marking
// the emitted suffix, and must continue exactly where the first stream left
// off.
func TestSparseReplayHandoffDeterministic(t *testing.T) {
	prompt := longPrompts()[3]
	const maxNew, topK, pageTokens = 16, 2, 4
	full := sparseReference(t, [][]int{prompt}, maxNew, topK, pageTokens, 0)[0]

	const half = maxNew / 2
	cont := append(append([]int(nil), prompt...), full[:half]...)
	m := model.New(model.Tiny(), seed)
	m.SetSparseTopK(topK)
	e, err := New(m, Config{MaxBatch: 2, PageTokens: pageTokens})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ch, err := e.Submit(context.Background(),
		Request{ID: 1, Prompt: cont, MaxNew: maxNew - half, Replay: half, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	want := full[half:]
	if len(got) != len(want) {
		t.Fatalf("continuation emitted %d tokens, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("continuation token %d: %d != %d", j, got[j], want[j])
		}
	}
}

// TestSparseReplayValidation: out-of-range Replay is rejected on a sparse
// engine; a dense engine zeroes Replay (chunked prefill is already
// bit-identical to decode) and serves the request normally.
func TestSparseReplayValidation(t *testing.T) {
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sm := model.New(model.Tiny(), seed)
	sm.SetSparseTopK(2)
	se, err := New(sm, Config{PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	for _, replay := range []int{-1, len(prompt), len(prompt) + 3} {
		if _, err := se.Submit(context.Background(), Request{ID: 1, Prompt: prompt, MaxNew: 4, Replay: replay}); err == nil {
			t.Fatalf("replay %d accepted", replay)
		}
	}

	want := sequentialReference(t, [][]int{prompt}, 6)[0]
	dm := model.New(model.Tiny(), seed)
	de, err := New(dm, Config{PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	ch, err := de.Submit(context.Background(), Request{ID: 2, Prompt: prompt, MaxNew: 6, Replay: 5, Arrival: -1})
	if err != nil {
		t.Fatalf("dense engine rejected Replay: %v", err)
	}
	got := collect(t, ch)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dense engine with Replay diverged at %d", j)
		}
	}
}

// TestSparseSharedPrefixBitIdentical: prefix-hit clones inherit the prefix
// cache's key summaries, so sparse decode over a cloned prefix is
// bit-identical to a cold sparse run.
func TestSparseSharedPrefixBitIdentical(t *testing.T) {
	prefix := make([]int, 21)
	for i := range prefix {
		prefix[i] = (i * 13) % 512
	}
	suffixes := [][]int{{1, 2}, {3}, {4, 5, 6, 7, 8, 9, 10}}
	prompts := make([][]int, len(suffixes))
	for i, sfx := range suffixes {
		prompts[i] = append(append([]int(nil), prefix...), sfx...)
	}
	const maxNew, topK, pageTokens = 12, 2, 4
	want := sparseReference(t, prompts, maxNew, topK, pageTokens, 0)
	cfg := Config{MaxBatch: 3, PageTokens: pageTokens, SharedPrefix: prefix}
	got, e := runSparseEngine(t, cfg, topK, prompts, maxNew)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != cold sparse %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := e.Stats()
	if st.PrefixHits < len(prompts) {
		t.Fatalf("PrefixHits = %d, want >= %d", st.PrefixHits, len(prompts))
	}
	if st.SparsePagesSelected == 0 {
		t.Fatal("no sparse selections over prefix clones")
	}
}

// TestSparseCacheHoldsOnlyDensePrefill pins the two sparse guards of the
// prefix cache on a chat-shaped exchange. Under sparse attention a token's
// K/V depends on whether dense prefill or a sparse decode step produced it,
// so (1) a sparse engine caches only pages wholly inside a request's
// dense-prefilled span — a follow-up turn that repeats the first turn's reply
// must not inherit the reply's decode-written pages, since its own cold run
// dense-prefills them — and (2) a match never reaches into a request's replay
// tail — a migration handoff whose decode-produced tokens happen to be cached
// as someone else's prompt still replays them through sparse decode.
func TestSparseCacheHoldsOnlyDensePrefill(t *testing.T) {
	const maxNew, topK, pageTokens, handed = 12, 2, 4, 5
	first := longPrompts()[1] // 22 tokens: five whole pages and two tokens of a sixth
	reply := sparseReference(t, [][]int{first}, maxNew, topK, pageTokens, 0)[0]
	followUp := append(append(append([]int(nil), first...), reply...), 401, 402, 403)
	wantFollowUp := sparseReference(t, [][]int{followUp}, maxNew, topK, pageTokens, 0)[0]

	m := model.New(model.Tiny(), seed)
	m.SetSparseTopK(topK)
	e, err := New(m, Config{MaxBatch: 1, PageTokens: pageTokens})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	serve := func(what string, req Request, want []int, wantSaved int) {
		t.Helper()
		before := e.Stats().PrefixTokensSaved
		ch, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := collect(t, ch)
		if len(got) != len(want) {
			t.Fatalf("%s: %d tokens, want %d", what, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s token %d: %d != cold sparse %d", what, j, got[j], want[j])
			}
		}
		if saved := e.Stats().PrefixTokensSaved - before; saved != wantSaved {
			t.Fatalf("%s: %d prompt tokens taken from the cache, want %d", what, saved, wantSaved)
		}
	}
	serve("first turn", Request{ID: 0, Prompt: first, MaxNew: maxNew, Arrival: -1}, reply, 0)
	// Only the first turn's five dense pages are there to be found.
	serve("follow-up turn", Request{ID: 1, Prompt: followUp, MaxNew: maxNew, Arrival: -1}, wantFollowUp, 20)
	// The follow-up's prompt was all dense prefill, so its pages now cover
	// the first turn's reply too — as dense K/V. The handoff may take the 22
	// tokens before its replay tail, no more.
	handoff := append(append([]int(nil), first...), reply[:handed]...)
	serve("handoff", Request{ID: 2, Prompt: handoff, MaxNew: maxNew - handed, Replay: handed, Arrival: -1}, reply[handed:], len(first))
}
