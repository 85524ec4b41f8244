package core

import (
	"runtime"
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
)

// prefilled builds a decode session the way the scheduler does: the prompt
// chunk-prefills through the fused plane on the pool's workspace, and the
// filled cache is wrapped with the first output token.
func prefilled(m *model.Model, pool *WorkspacePool, prompt []int, cache kvcache.Cache) *StepSession {
	res := m.PrefillChunkInto(pool.Batch(), prompt, 0, cache)
	return NewPrefilledStepSession(m, cache, tensor.Argmax(res.Logits))
}

// sessionTokens decodes maxNew tokens with a Session over a caller-chosen
// cache: the single-stream reference (one lane, token-at-a-time prefill,
// Session.Next decode) every step-plane stream is compared against token for
// token.
func sessionTokens(m *model.Model, prompt []int, cache kvcache.Cache, maxNew int) []int {
	s, err := NewSession(m, cache, prompt)
	if err != nil {
		panic(err)
	}
	return s.Decode(maxNew)
}

// StepSession over the pool's workspace must emit exactly the tokens Session
// emits — it is the same greedy decode restructured for workspace sharing —
// on every cache layout the engine serves (Full, fp32/int8/int4
// pages), stepping the prompts as one batch and each alone: a single
// session with no chunks is a batch of one on the same fused pass. The
// stream's first token is the one prefill decided; step k reports token k+1.
func TestStepSessionMatchesSession(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	prompts := [][]int{
		{1, 2, 3, 4},
		{10, 20, 30, 40, 50, 60, 70},
		{5},
	}
	const maxNew = 16
	kinds := []struct {
		name string
		mk   func() kvcache.Cache
	}{
		{"full", func() kvcache.Cache { return kvcache.NewFull(m.CacheShape()) }},
		{"paged-fp32", func() kvcache.Cache { return kvcache.NewPagedKV(m.CacheShape(), 8) }},
		{"paged-int8", func() kvcache.Cache { return kvcache.NewPagedKVQuant(m.CacheShape(), 8, 0, 8) }},
		{"paged-int4", func() kvcache.Cache { return kvcache.NewPagedKVQuant(m.CacheShape(), 8, 0, 4) }},
	}
	for _, kind := range kinds {
		want := make([][]int, len(prompts))
		for i, prompt := range prompts {
			want[i] = sessionTokens(m, prompt, kind.mk(), maxNew)
		}
		pool := NewWorkspacePool(m)
		// The whole set as one batch, then each prompt as a batch of one.
		groups := [][]int{{0, 1, 2}, {0}, {1}, {2}}
		for _, group := range groups {
			sessions := make([]*StepSession, len(group))
			for g, i := range group {
				sessions[g] = prefilled(m, pool, prompts[i], kind.mk())
			}
			toks := make([]int, len(sessions))
			for g, s := range sessions {
				toks[g] = s.next
			}
			for step := 0; step < maxNew; step++ {
				if step > 0 {
					StepMixedStatsInto(pool, sessions, toks, nil, nil, nil)
				}
				for g, i := range group {
					if toks[g] != want[i][step] {
						t.Fatalf("%s B=%d prompt %d token %d: step loop %d != session %d",
							kind.name, len(group), i, step, toks[g], want[i][step])
					}
				}
			}
		}
	}
}

// An empty prompt cannot become a step session: the chunk that would prefill
// it is refused by the fused pass before any cache is touched.
func TestNewStepSessionEmptyPrompt(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	pool := NewWorkspacePool(m)
	cache := kvcache.NewFull(m.CacheShape())
	defer func() {
		if recover() == nil {
			t.Fatal("empty prompt accepted")
		}
		if cache.TotalAppended() != 0 {
			t.Fatalf("refused prompt appended %d tokens", cache.TotalAppended())
		}
	}()
	StepMixedStatsInto(pool, nil, nil, []PrefillChunk{{Cache: cache, Final: true}}, make([]int, 1), nil)
}

// TestStepAllMixedCaches drives the fused path with heterogeneous cache
// layouts in one batch (Full next to PagedKV): attention is
// per-session, so the fused step must handle any Cache mix and still
// match Session.Next token for token.
func TestStepAllMixedCaches(t *testing.T) {
	m := model.New(model.Tiny(), 5)
	pool := NewWorkspacePool(m)

	prompts := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{9, 8, 7},
		{100, 200, 300, 400},
		{42},
	}
	mkCache := func(i int) kvcache.Cache {
		if i%2 == 0 {
			return kvcache.NewFull(m.CacheShape())
		}
		return kvcache.NewPagedKV(m.CacheShape(), 4)
	}

	const maxNew = 12
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		want[i] = sessionTokens(m, prompt, mkCache(i), maxNew)
	}

	sessions := make([]*StepSession, len(prompts))
	for i, prompt := range prompts {
		sessions[i] = prefilled(m, pool, prompt, mkCache(i))
	}
	toks := make([]int, len(sessions))
	for i, s := range sessions {
		toks[i] = s.next // token 0 is prefill's; step k reports token k+1
	}
	for step := 0; step < maxNew; step++ {
		if step > 0 {
			StepMixedStatsInto(pool, sessions, toks, nil, nil, nil)
		}
		for i, tok := range toks {
			if tok != want[i][step] {
				t.Fatalf("session %d step %d: fused %d != per-session %d", i, step, tok, want[i][step])
			}
		}
	}
}

// TestStepForeignModelRejected pins the one-model contract: the pool's
// workspace belongs to the pool's model, so a session built on any
// other model — alone, or mixed into a batch of the pool's own — is refused
// by panic rather than stepped on the wrong weights.
func TestStepForeignModelRejected(t *testing.T) {
	m1 := model.New(model.Tiny(), 1)
	m2 := model.New(model.Tiny(), 2)
	pool := NewWorkspacePool(m1)
	foreignPool := NewWorkspacePool(m2)
	prompt := []int{3, 1, 4, 1, 5}

	own := prefilled(m1, pool, prompt, kvcache.NewFull(m1.CacheShape()))
	foreign := prefilled(m2, foreignPool, prompt, kvcache.NewFull(m2.CacheShape()))
	for name, sessions := range map[string][]*StepSession{
		"foreign alone": {foreign},
		"mixed batch":   {own, foreign},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: foreign-model session was stepped", name)
				}
			}()
			StepMixedStatsInto(pool, sessions, make([]int, len(sessions)), nil, nil, nil)
		}()
	}
	if own.Pos() != len(prompt) || foreign.Pos() != len(prompt) {
		t.Fatalf("a rejected step advanced a session: own at %d, foreign at %d", own.Pos(), foreign.Pos())
	}
}

// TestStepMixedIntoMatchesStepAll drives a decode batch while a long
// prompt chunk-prefills through the same fused iterations, then decodes
// the prefilled request via NewPrefilledStepSession: every stream — the
// concurrent decoders and the chunked request — must emit exactly the
// tokens Session.Next produces.
func TestStepMixedIntoMatchesStepAll(t *testing.T) {
	m := model.New(model.Tiny(), 9)
	pool := NewWorkspacePool(m)

	decodePrompts := [][]int{
		{1, 2, 3, 4, 5},
		{50, 60, 70},
	}
	longPrompt := make([]int, 37)
	for i := range longPrompt {
		longPrompt[i] = (i*23 + 11) % m.Config().Vocab
	}
	const maxNew = 10

	// References: Session.Next, one stream at a time.
	want := make([][]int, len(decodePrompts)+1)
	for i, prompt := range append(append([][]int{}, decodePrompts...), longPrompt) {
		want[i] = sessionTokens(m, prompt, kvcache.NewPagedKV(m.CacheShape(), 8), maxNew)
	}

	sessions := make([]*StepSession, len(decodePrompts))
	got := make([][]int, len(decodePrompts)+1)
	for i, prompt := range decodePrompts {
		sessions[i] = prefilled(m, pool, prompt, kvcache.NewPagedKV(m.CacheShape(), 8))
		got[i] = append(got[i], sessions[i].next)
	}
	// Chunk the long prompt at 8 across mixed iterations; decoders advance
	// one token per iteration alongside. A stream's first token is the one
	// its prefill decided — the Final chunk's next, for the long prompt.
	longCache := kvcache.NewPagedKV(m.CacheShape(), 8)
	toks := make([]int, len(sessions))
	nexts := make([]int, 1)
	var longSess *StepSession
	for off := 0; off < len(longPrompt); off += 8 {
		end := off + 8
		if end > len(longPrompt) {
			end = len(longPrompt)
		}
		chunks := []PrefillChunk{{Tokens: longPrompt[off:end], Cache: longCache, Final: end == len(longPrompt)}}
		StepMixedStatsInto(pool, sessions, toks, chunks, nexts, nil)
		for i, tok := range toks {
			got[i] = append(got[i], tok)
		}
		if chunks[0].Final {
			if nexts[0] < 0 {
				t.Fatal("final chunk returned no next token")
			}
			longSess = NewPrefilledStepSession(m, longCache, nexts[0])
			got[len(sessions)] = append(got[len(sessions)], nexts[0])
		} else if nexts[0] != -1 {
			t.Fatalf("non-final chunk returned token %d", nexts[0])
		}
	}
	// Finish all streams with plain fused stepping.
	all := append(append([]*StepSession{}, sessions...), longSess)
	allToks := make([]int, len(all))
	for steps := 0; ; steps++ {
		StepMixedStatsInto(pool, all, allToks, nil, nil, nil)
		for i, tok := range allToks {
			if len(got[i]) < maxNew {
				got[i] = append(got[i], tok)
			}
		}
		done := true
		for i := range got {
			if len(got[i]) < maxNew {
				done = false
			}
		}
		if done {
			break
		}
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("stream %d token %d: mixed %d != per-session %d", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestStepMixedPackedMatchesStepAll packs chunks from several prompts into
// the same fused iterations as a running decode batch — the budget-packed
// shape the scheduler's TokenBudget produces — and checks every stream
// emits exactly the tokens Session.Next produces, with each packed
// prompt's first decode token coming from its own chunk's Final logits.
func TestStepMixedPackedMatchesStepAll(t *testing.T) {
	m := model.New(model.Tiny(), 9)
	pool := NewWorkspacePool(m)

	decodePrompts := [][]int{
		{1, 2, 3, 4, 5},
		{50, 60, 70},
	}
	longPrompts := make([][]int, 3)
	for j := range longPrompts {
		longPrompts[j] = make([]int, 19+7*j) // 19, 26, 33: staggered finals
		for i := range longPrompts[j] {
			longPrompts[j][i] = (i*23 + j*41 + 11) % m.Config().Vocab
		}
	}
	const maxNew = 8
	const chunkSize = 6

	all := append(append([][]int{}, decodePrompts...), longPrompts...)
	want := make([][]int, len(all))
	for i, prompt := range all {
		want[i] = sessionTokens(m, prompt, kvcache.NewPagedKV(m.CacheShape(), 8), maxNew)
	}

	sessions := make([]*StepSession, len(decodePrompts))
	got := make([][]int, len(all))
	for i, prompt := range decodePrompts {
		sessions[i] = prefilled(m, pool, prompt, kvcache.NewPagedKV(m.CacheShape(), 8))
		got[i] = append(got[i], sessions[i].next)
	}
	longCaches := make([]kvcache.Cache, len(longPrompts))
	longSess := make([]*StepSession, len(longPrompts))
	for j := range longPrompts {
		longCaches[j] = kvcache.NewPagedKV(m.CacheShape(), 8)
	}
	toks := make([]int, len(sessions))
	var chunks []PrefillChunk
	var nexts []int
	var idx []int
	for off := 0; ; off += chunkSize {
		chunks = chunks[:0]
		idx = idx[:0]
		for j, prompt := range longPrompts {
			if off >= len(prompt) {
				continue
			}
			end := off + chunkSize
			if end > len(prompt) {
				end = len(prompt)
			}
			chunks = append(chunks, PrefillChunk{
				Tokens: prompt[off:end],
				Cache:  longCaches[j],
				Final:  end == len(prompt),
			})
			idx = append(idx, j)
		}
		if len(chunks) == 0 {
			break
		}
		if cap(nexts) < len(chunks) {
			nexts = make([]int, len(chunks))
		}
		StepMixedStatsInto(pool, sessions, toks, chunks, nexts[:len(chunks)], nil)
		for i, tok := range toks {
			got[i] = append(got[i], tok)
		}
		for c, j := range idx {
			if chunks[c].Final {
				if nexts[c] < 0 {
					t.Fatalf("final chunk %d returned no next token", j)
				}
				longSess[j] = NewPrefilledStepSession(m, longCaches[j], nexts[c])
				got[len(sessions)+j] = append(got[len(sessions)+j], nexts[c])
			} else if nexts[c] != -1 {
				t.Fatalf("non-final chunk %d returned token %d", j, nexts[c])
			}
		}
	}
	// Finish all streams with plain fused stepping.
	allSess := append(append([]*StepSession{}, sessions...), longSess...)
	allToks := make([]int, len(allSess))
	for {
		StepMixedStatsInto(pool, allSess, allToks, nil, nil, nil)
		done := true
		for i, tok := range allToks {
			if len(got[i]) < maxNew {
				got[i] = append(got[i], tok)
			}
			if len(got[i]) < maxNew {
				done = false
			}
		}
		if done {
			break
		}
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("stream %d token %d: packed %d != per-session %d", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// packedShapes are the two ends of the one step entry point the alloc pins
// run: the budget-packed serving iteration (decode lanes plus chunks from
// several prompts) and a single session with no chunks, the most common step
// under light load.
var packedShapes = []struct{ B, K int }{{3, 2}, {1, 0}}

// packedStep builds B decode sessions and K four-token Final chunks on m, on
// paged caches sized past the run so cache growth cannot blur the count,
// warms the pool's workspace, chunk scratch and first pages with one step,
// and returns the step.
func packedStep(m *model.Model, B, K int) func() {
	pool := NewWorkspacePool(m)
	sessions := make([]*StepSession, B)
	for i := range sessions {
		prompt := []int{1 + i, 2, 3, 4 + i}
		sessions[i] = prefilled(m, pool, prompt, kvcache.NewPagedKV(m.CacheShape(), 1024))
	}
	chunkCaches := make([]*kvcache.PagedKV, K)
	for j := range chunkCaches {
		chunkCaches[j] = kvcache.NewPagedKV(m.CacheShape(), 1024)
	}
	chunkTokens := make([]int, 4)
	toks := make([]int, B)
	chunks := make([]PrefillChunk, K)
	nexts := make([]int, K)
	step := func() {
		for j := range chunks {
			chunks[j] = PrefillChunk{Tokens: chunkTokens, Cache: chunkCaches[j], Final: true}
		}
		StepMixedStatsInto(pool, sessions, toks, chunks, nexts, nil)
	}
	step()
	return step
}

// TestStepMixedPackedAllocFree pins both packedShapes at zero steady-state
// heap allocations, the contract the scheduler's packed stepOnce relies on.
// AllocsPerRun measures at one P; TestStepAllocFreeAtTwoPs measures at two.
func TestStepMixedPackedAllocFree(t *testing.T) {
	for _, shape := range packedShapes {
		step := packedStep(model.New(model.Tiny(), 3), shape.B, shape.K)
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Fatalf("B=%d K=%d: StepMixedStatsInto allocated %v per run", shape.B, shape.K, n)
		}
	}
}

// TestStepAllocFreeAtTwoPs pins both packedShapes at zero allocations per
// step with two Ps, on the serving-shaped model. testing.AllocsPerRun sets
// GOMAXPROCS to 1 while it measures, so it cannot see a step that allocates
// only when a second P is free — one that fans its GEMMs or its attention out
// to goroutines — so this test reads the heap's malloc count around 50 steps.
// Like AllocsPerRun it divides by the steps and rounds down: at two Ps the
// runtime now and then allocates a few objects of its own inside the window
// (a window that runs no step at all sees them too), while a step that
// allocates does so on every call.
func TestStepAllocFreeAtTwoPs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const steps = 50
	m := model.New(model.Small(), 3)
	for _, shape := range packedShapes {
		step := packedStep(m, shape.B, shape.K)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n/steps != 0 {
			t.Fatalf("B=%d K=%d: %d steps at GOMAXPROCS 2 allocated %d objects", shape.B, shape.K, steps, n)
		}
	}
}

// TestStepAllIntoAllocFree proves the fused serving step allocates nothing
// in steady state: the pool's workspace, reused toks, paged caches sized
// past the decode window.
func TestStepAllIntoAllocFree(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	pool := NewWorkspacePool(m)

	sessions := make([]*StepSession, 4)
	for i := range sessions {
		prompt := []int{1 + i, 2, 3, 4 + i}
		sessions[i] = prefilled(m, pool, prompt, kvcache.NewPagedKV(m.CacheShape(), 1024))
	}
	toks := make([]int, len(sessions))
	StepMixedStatsInto(pool, sessions, toks, nil, nil, nil) // warm the pool's workspace
	if n := testing.AllocsPerRun(50, func() {
		StepMixedStatsInto(pool, sessions, toks, nil, nil, nil)
	}); n != 0 {
		t.Fatalf("fused decode step allocated %v per run", n)
	}
}

// TestEvictionDecodeAllocFree pins a warm batch decode step over every
// eviction method's cache, past its budget, at zero allocations: each head
// appends into the capacity its last eviction freed, and the page walk reads
// its Seq in place. Four lanes prefill 160 tokens a token at a time, as the
// offline Session does — past every tiny-scale budget (64 or 128 entries a
// head), with SnapKV's prompt compression at its end — then step through
// the serving step entry.
func TestEvictionDecodeAllocFree(t *testing.T) {
	m := model.New(model.Tiny(), 3)
	prompt := make([]int, 160)
	for _, name := range []string{"stream-256", "stream-512", "h2o-256", "h2o-512", "snapkv-512"} {
		method := compress.MustGet(name)
		pool := NewWorkspacePool(m)
		sessions := make([]*StepSession, 4)
		for i := range sessions {
			for j := range prompt {
				prompt[j] = (i*131 + j*17) % m.Config().Vocab
			}
			cache := method.NewCache(m.CacheShape())
			s, err := NewSession(m, cache, prompt)
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = NewPrefilledStepSession(m, cache, s.Next())
			if held := cache.Len(0, 0); held >= cache.TotalAppended() {
				t.Fatalf("%s: the cache holds %d of %d tokens, nothing evicted", name, held, cache.TotalAppended())
			}
		}
		toks := make([]int, len(sessions))
		step := func() { StepMixedStatsInto(pool, sessions, toks, nil, nil, nil) }
		step() // warm the pool's workspace
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Fatalf("%s: a batch decode step past the budget allocated %v per run", name, n)
		}
	}
}

func TestStepAllIntoLengthMismatch(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	pool := NewWorkspacePool(m)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on toks length mismatch")
		}
	}()
	StepMixedStatsInto(pool, make([]*StepSession, 2), make([]int, 1), nil, nil, nil)
}
