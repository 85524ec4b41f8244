package model

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// equalStep fails the test unless two step results match bit-for-bit.
func equalStep(t *testing.T, label string, got, want StepResult) {
	t.Helper()
	if len(got.Logits) != len(want.Logits) || len(got.Hidden) != len(want.Hidden) {
		t.Fatalf("%s: result shape mismatch", label)
	}
	for j := range want.Logits {
		if math.Float32bits(got.Logits[j]) != math.Float32bits(want.Logits[j]) {
			t.Fatalf("%s: logit %d: %x != %x", label, j,
				math.Float32bits(got.Logits[j]), math.Float32bits(want.Logits[j]))
		}
	}
	for j := range want.Hidden {
		if math.Float32bits(got.Hidden[j]) != math.Float32bits(want.Hidden[j]) {
			t.Fatalf("%s: hidden %d differs", label, j)
		}
	}
}

// equalCaches fails the test unless two caches retain bit-identical K/V.
func equalCaches(t *testing.T, label string, got, want kvcache.Cache) {
	t.Helper()
	if got.TotalAppended() != want.TotalAppended() {
		t.Fatalf("%s: appended %d != %d", label, got.TotalAppended(), want.TotalAppended())
	}
	shape := want.Shape()
	for l := 0; l < shape.Layers; l++ {
		for h := 0; h < shape.KVHeads; h++ {
			gk, gv := got.Seq(l, h)
			wk, wv := want.Seq(l, h)
			if len(gk) != len(wk) {
				t.Fatalf("%s: (%d,%d) len %d != %d", label, l, h, len(gk), len(wk))
			}
			for i := range wk {
				for d := 0; d < shape.HeadDim; d++ {
					if math.Float32bits(gk[i][d]) != math.Float32bits(wk[i][d]) ||
						math.Float32bits(gv[i][d]) != math.Float32bits(wv[i][d]) {
						t.Fatalf("%s: entry (%d,%d,%d,%d) differs", label, l, h, i, d)
					}
				}
			}
		}
	}
}

// TestPrefillChunkIntoBitIdentical pins chunked prefill against
// token-at-a-time PrefillInto bit-for-bit: chunk sizes 1, 3, 8, a
// non-divisor of the prompt length, and one larger than the whole prompt,
// on both flat-storage caches — final logits/hidden, full cache contents,
// and several greedy decode steps on top of the chunk-filled cache.
func TestPrefillChunkIntoBitIdentical(t *testing.T) {
	const promptLen = 23
	m := New(Tiny(), 11)
	ws := m.NewWorkspace()
	bw := m.NewBatchWorkspace(0)
	prompt := make([]int, promptLen)
	for i := range prompt {
		prompt[i] = (i*29 + 7) % m.Config().Vocab
	}
	for _, kind := range batchCacheKinds {
		ref := kind.mk(m)
		want := m.PrefillInto(ws, prompt, ref)
		want = StepResult{
			Logits: append([]float32(nil), want.Logits...),
			Hidden: append([]float32(nil), want.Hidden...),
		}
		wantDecode := make([]int, 6)
		pos := promptLen
		next := tensor.Argmax(want.Logits)
		for s := range wantDecode {
			wantDecode[s] = next
			sr := m.ForwardInto(ws, next, pos, ref)
			next = tensor.Argmax(sr.Logits)
			pos++
		}

		for _, chunkSize := range []int{1, 3, 8, 7, promptLen + 9} {
			cache := kind.mk(m)
			got := m.PrefillChunkInto(bw, prompt, chunkSize, cache)
			equalStep(t, kind.name+" chunk result", got, want)
			// Decode on top of the chunk-filled cache must continue the
			// reference stream exactly.
			pos := promptLen
			next := tensor.Argmax(got.Logits)
			for s, wantTok := range wantDecode {
				if next != wantTok {
					t.Fatalf("%s chunk=%d decode step %d: token %d != %d", kind.name, chunkSize, s, next, wantTok)
				}
				sr := m.ForwardInto(ws, next, pos, cache)
				next = tensor.Argmax(sr.Logits)
				pos++
			}
		}
		// Cache-content identity, checked on a fresh fill (the decode loop
		// above appended beyond the prompt).
		for _, chunkSize := range []int{3, 7} {
			refCache := kind.mk(m)
			m.PrefillInto(ws, prompt, refCache)
			cache := kind.mk(m)
			m.PrefillChunkInto(bw, prompt, chunkSize, cache)
			equalCaches(t, kind.name+" chunked cache", cache, refCache)
		}
	}
}

// TestPrefillChunkIntoOnClonePrefix pins chunked tail prefill on top of a
// copy-on-write ClonePrefix cache: the chunk plane must resume at the
// prefix boundary and stay bit-identical to token-at-a-time tail prefill on
// an identical clone — the shared-prefix admission path the scheduler runs.
func TestPrefillChunkIntoOnClonePrefix(t *testing.T) {
	m := New(Tiny(), 5)
	ws := m.NewWorkspace()
	bw := m.NewBatchWorkspace(0)
	prefix := make([]int, 21) // deliberately not page-aligned
	for i := range prefix {
		prefix[i] = (i*13 + 1) % m.Config().Vocab
	}
	tail := []int{9, 42, 3, 77, 5, 8, 101, 2, 60, 31, 4}

	prefixCache := kvcache.NewPagedKV(m.CacheShape(), 8)
	m.PrefillInto(ws, prefix, prefixCache)

	refClone := prefixCache.ClonePrefix()
	var want StepResult
	for i, tok := range tail {
		want = m.ForwardInto(ws, tok, len(prefix)+i, refClone)
	}
	want = StepResult{
		Logits: append([]float32(nil), want.Logits...),
		Hidden: append([]float32(nil), want.Hidden...),
	}

	for _, chunkSize := range []int{1, 4, len(tail), len(tail) + 5} {
		clone := prefixCache.ClonePrefix()
		got := m.PrefillChunkInto(bw, tail, chunkSize, clone)
		equalStep(t, "cow tail", got, want)
		equalCaches(t, "cow cache", clone, refClone)
	}
}

// TestForwardMixedIntoBitIdentical pins the mixed decode+chunk step: B
// decode lanes advance exactly as ForwardInto would while
// one prompt chunk-prefills through the same fused passes, several
// iterations deep, on Full and PagedKV. Decode logits, the chunk's final
// logits, and the chunk cache must all match the unmixed references
// bit-for-bit.
func TestForwardMixedIntoBitIdentical(t *testing.T) {
	const B = 3
	const chunkSize = 5
	prompt := []int{4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144, 13, 26, 39, 52, 65, 78} // 17: non-divisor tail
	for _, kind := range batchCacheKinds {
		m := New(Tiny(), 17)
		ws := m.NewWorkspace()
		bw := m.NewBatchWorkspace(B)

		seqCaches := make([]kvcache.Cache, B)
		mixCaches := make([]kvcache.Cache, B)
		tokens := make([]int, B)
		positions := make([]int, B)
		for b := 0; b < B; b++ {
			seqCaches[b] = kind.mk(m)
			mixCaches[b] = kind.mk(m)
			p := prefillLane(m, ws, seqCaches[b], b)
			prefillLane(m, ws, mixCaches[b], b)
			positions[b] = len(p)
			tokens[b] = (b*19 + 2) % m.Config().Vocab
		}
		refChunkCache := kind.mk(m)
		wantChunk := m.PrefillInto(ws, prompt, refChunkCache)
		wantChunk = StepResult{
			Logits: append([]float32(nil), wantChunk.Logits...),
			Hidden: append([]float32(nil), wantChunk.Hidden...),
		}

		mixChunkCache := kind.mk(m)
		var gotChunk StepResult
		for off := 0; off < len(prompt); off += chunkSize {
			end := off + chunkSize
			if end > len(prompt) {
				end = len(prompt)
			}
			// Reference decode step for every lane.
			wantStep := make([]StepResult, B)
			for b := 0; b < B; b++ {
				sr := m.ForwardInto(ws, tokens[b], positions[b], seqCaches[b])
				wantStep[b] = StepResult{
					Logits: append([]float32(nil), sr.Logits...),
					Hidden: append([]float32(nil), sr.Hidden...),
				}
			}
			ch := Chunk{
				Tokens:     prompt[off:end],
				Pos:        off,
				Cache:      mixChunkCache,
				NeedLogits: end == len(prompt),
			}
			results, chunkRes := m.ForwardMixedInto(bw, tokens, positions, mixCaches, []Chunk{ch})
			for b := 0; b < B; b++ {
				equalStep(t, kind.name+" mixed decode lane", results[b], wantStep[b])
				tokens[b] = tensor.Argmax(results[b].Logits)
				positions[b]++
			}
			if ch.NeedLogits {
				gotChunk = chunkRes[0]
			}
		}
		equalStep(t, kind.name+" mixed chunk final", gotChunk, wantChunk)
		equalCaches(t, kind.name+" mixed chunk cache", mixChunkCache, refChunkCache)
		for b := 0; b < B; b++ {
			equalCaches(t, kind.name+" mixed decode cache", mixCaches[b], seqCaches[b])
		}
	}
}

// TestForwardMixedIntoWorkers pins the worker-sharded mixed step (sharded
// GEMMs, lane-sharded decode attention, position-sharded chunk attention)
// to the serial one bit-for-bit.
func TestForwardMixedIntoWorkers(t *testing.T) {
	const B = 4
	prompt := make([]int, 24)
	for i := range prompt {
		prompt[i] = (i*31 + 5) % Tiny().Vocab
	}
	m := New(Tiny(), 23)
	ws := m.NewWorkspace()
	serial := m.NewBatchWorkspace(B)
	parallel := m.NewBatchWorkspace(B)
	parallel.SetWorkers(4)

	mk := func() ([]kvcache.Cache, []int, []int, kvcache.Cache) {
		caches := make([]kvcache.Cache, B)
		tokens := make([]int, B)
		positions := make([]int, B)
		for b := 0; b < B; b++ {
			caches[b] = kvcache.NewPagedKV(m.CacheShape(), 8)
			p := prefillLane(m, ws, caches[b], b)
			positions[b] = len(p)
			tokens[b] = (b * 41) % m.Config().Vocab
		}
		return caches, tokens, positions, kvcache.NewPagedKV(m.CacheShape(), 8)
	}
	sc, st, sp, sChunk := mk()
	pc, pt, pp, pChunk := mk()
	for off := 0; off < len(prompt); off += 8 {
		ch := Chunk{Tokens: prompt[off : off+8], Pos: off, Cache: sChunk, NeedLogits: off+8 == len(prompt)}
		wantRes, wantChunkRes := m.ForwardMixedInto(serial, st, sp, sc, []Chunk{ch})
		want := make([]StepResult, B)
		for b := range wantRes {
			want[b] = StepResult{
				Logits: append([]float32(nil), wantRes[b].Logits...),
				Hidden: append([]float32(nil), wantRes[b].Hidden...),
			}
		}
		wantChunk := StepResult{
			Logits: append([]float32(nil), wantChunkRes[0].Logits...),
			Hidden: append([]float32(nil), wantChunkRes[0].Hidden...),
		}
		ch.Cache = pChunk
		gotRes, gotChunk := m.ForwardMixedInto(parallel, pt, pp, pc, []Chunk{ch})
		for b := 0; b < B; b++ {
			equalStep(t, "workers decode lane", gotRes[b], want[b])
			st[b] = tensor.Argmax(want[b].Logits)
			pt[b] = st[b]
			sp[b]++
			pp[b]++
		}
		if ch.NeedLogits {
			equalStep(t, "workers chunk final", gotChunk[0], wantChunk)
		}
	}
	equalCaches(t, "workers chunk cache", pChunk, sChunk)
}

// TestForwardMixedIntoAllocFree pins the mixed decode+chunk iteration at
// zero steady-state heap allocations (serial workers): the chunk staging
// span, gather views, and per-lane scratch are all reused. Pages are large
// enough that cache growth cannot blur the measurement.
func TestForwardMixedIntoAllocFree(t *testing.T) {
	const B = 8
	const C = 8
	m := New(Tiny(), 7)
	ws := m.NewWorkspace()
	bw := m.NewBatchWorkspace(B + C)
	caches := make([]kvcache.Cache, B)
	tokens := make([]int, B)
	positions := make([]int, B)
	for b := 0; b < B; b++ {
		caches[b] = kvcache.NewPagedKV(m.CacheShape(), 4096)
		prompt := prefillLane(m, ws, caches[b], b)
		positions[b] = len(prompt)
		tokens[b] = b % m.Config().Vocab
	}
	chunkCache := kvcache.NewPagedKV(m.CacheShape(), 4096)
	chunkTokens := make([]int, C)
	pos := 0
	chs := make([]Chunk, 1)
	step := func() {
		chs[0] = Chunk{Tokens: chunkTokens, Pos: pos, Cache: chunkCache, NeedLogits: true}
		m.ForwardMixedInto(bw, tokens, positions, caches, chs)
		pos += C
		for b := 0; b < B; b++ {
			positions[b]++
		}
	}
	step() // warm: lanes, chunk staging, score buffers, first pages
	if n := testing.AllocsPerRun(30, step); n != 0 {
		t.Fatalf("mixed decode+chunk step allocated %v per run", n)
	}
}

// TestForwardMixedPackedAllocFree pins the budget-packed mixed pass — B
// decode lanes plus chunks from K distinct prompts in one fused iteration —
// at zero steady-state heap allocations (serial workers): the shared chunk
// staging span, the per-chunk path/result slots, and the LM-head gather are
// all reused across passes.
func TestForwardMixedPackedAllocFree(t *testing.T) {
	const B = 4
	const K = 3
	const C = 5 // tokens per packed chunk
	m := New(Tiny(), 7)
	ws := m.NewWorkspace()
	bw := m.NewBatchWorkspace(B + K*C)
	caches := make([]kvcache.Cache, B)
	tokens := make([]int, B)
	positions := make([]int, B)
	for b := 0; b < B; b++ {
		caches[b] = kvcache.NewPagedKV(m.CacheShape(), 4096)
		prompt := prefillLane(m, ws, caches[b], b)
		positions[b] = len(prompt)
		tokens[b] = b % m.Config().Vocab
	}
	chunkCaches := make([]*kvcache.PagedKV, K)
	for j := range chunkCaches {
		chunkCaches[j] = kvcache.NewPagedKV(m.CacheShape(), 4096)
	}
	chunkTokens := make([]int, C)
	pos := 0
	chs := make([]Chunk, K)
	step := func() {
		for j := range chs {
			chs[j] = Chunk{Tokens: chunkTokens, Pos: pos, Cache: chunkCaches[j], NeedLogits: true}
		}
		m.ForwardMixedInto(bw, tokens, positions, caches, chs)
		pos += C
		for b := 0; b < B; b++ {
			positions[b]++
		}
	}
	step() // warm: lanes, packed staging, per-chunk slots, first pages
	if n := testing.AllocsPerRun(30, step); n != 0 {
		t.Fatalf("packed mixed step allocated %v per run", n)
	}
}

// TestForwardMixedIntoValidation covers the chunk-side contract panics.
func TestForwardMixedIntoValidation(t *testing.T) {
	m := New(Tiny(), 1)
	bw := m.NewBatchWorkspace(1)
	cache := kvcache.NewFull(m.CacheShape())

	assertPanics(t, "empty chunk", func() {
		m.ForwardMixedInto(bw, nil, nil, nil, []Chunk{{Cache: cache}})
	})
	assertPanics(t, "position mismatch", func() {
		m.ForwardMixedInto(bw, nil, nil, nil, []Chunk{{Tokens: []int{1}, Pos: 3, Cache: cache}})
	})
	assertPanics(t, "chunk cache shape", func() {
		bad := kvcache.NewFull(kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 2})
		m.ForwardMixedInto(bw, nil, nil, nil, []Chunk{{Tokens: []int{1}, Cache: bad}})
	})
	assertPanics(t, "chunk token range", func() {
		m.ForwardMixedInto(bw, nil, nil, nil, []Chunk{{Tokens: []int{-1}, Cache: cache}})
	})
	assertPanics(t, "shared chunk cache", func() {
		m.ForwardMixedInto(bw, nil, nil, nil, []Chunk{
			{Tokens: []int{1}, Cache: cache},
			{Tokens: []int{2}, Pos: 1, Cache: cache},
		})
	})
	assertPanics(t, "chunk cache is a decode lane's", func() {
		m.ForwardMixedInto(bw, []int{1}, []int{0}, []kvcache.Cache{cache},
			[]Chunk{{Tokens: []int{2}, Cache: cache}})
	})
	assertPanics(t, "shared lane cache", func() {
		m.ForwardMixedInto(bw, []int{1, 2}, []int{0, 0}, []kvcache.Cache{cache, cache}, nil)
	})
	assertPanics(t, "empty prompt", func() {
		m.PrefillChunkInto(bw, nil, 4, cache)
	})
}

// TestForwardMixedPackedBitIdentical pins the packed mixed pass: chunks
// from K distinct prompts advance through one fused iteration alongside a
// decode batch, and every stream — each packed prompt's cache and final
// logits, each decode lane — must be bit-identical to its own unpacked
// sequential reference. Prompts have different lengths so later iterations
// carry fewer chunks (the budget-draining shape the scheduler produces).
func TestForwardMixedPackedBitIdentical(t *testing.T) {
	const B = 2
	const chunkSize = 4
	prompts := [][]int{
		make([]int, 11),
		make([]int, 17),
		make([]int, 6),
	}
	for j := range prompts {
		for i := range prompts[j] {
			prompts[j][i] = (i*29 + j*13 + 7) % Tiny().Vocab
		}
	}
	for _, kind := range batchCacheKinds {
		m := New(Tiny(), 17)
		ws := m.NewWorkspace()
		bw := m.NewBatchWorkspace(B)

		seqCaches := make([]kvcache.Cache, B)
		mixCaches := make([]kvcache.Cache, B)
		tokens := make([]int, B)
		positions := make([]int, B)
		for b := 0; b < B; b++ {
			seqCaches[b] = kind.mk(m)
			mixCaches[b] = kind.mk(m)
			p := prefillLane(m, ws, seqCaches[b], b)
			prefillLane(m, ws, mixCaches[b], b)
			positions[b] = len(p)
			tokens[b] = (b*19 + 2) % m.Config().Vocab
		}
		refCaches := make([]kvcache.Cache, len(prompts))
		wantFinal := make([]StepResult, len(prompts))
		for j, prompt := range prompts {
			refCaches[j] = kind.mk(m)
			sr := m.PrefillInto(ws, prompt, refCaches[j])
			wantFinal[j] = StepResult{
				Logits: append([]float32(nil), sr.Logits...),
				Hidden: append([]float32(nil), sr.Hidden...),
			}
		}

		packCaches := make([]kvcache.Cache, len(prompts))
		for j := range packCaches {
			packCaches[j] = kind.mk(m)
		}
		gotFinal := make([]StepResult, len(prompts))
		var chs []Chunk
		for off := 0; ; off += chunkSize {
			chs = chs[:0]
			idx := make([]int, 0, len(prompts))
			for j, prompt := range prompts {
				if off >= len(prompt) {
					continue
				}
				end := off + chunkSize
				if end > len(prompt) {
					end = len(prompt)
				}
				chs = append(chs, Chunk{
					Tokens:     prompt[off:end],
					Pos:        off,
					Cache:      packCaches[j],
					NeedLogits: end == len(prompt),
				})
				idx = append(idx, j)
			}
			if len(chs) == 0 {
				break
			}
			// Reference decode step for every lane.
			wantStep := make([]StepResult, B)
			for b := 0; b < B; b++ {
				sr := m.ForwardInto(ws, tokens[b], positions[b], seqCaches[b])
				wantStep[b] = StepResult{
					Logits: append([]float32(nil), sr.Logits...),
					Hidden: append([]float32(nil), sr.Hidden...),
				}
			}
			results, chunkRes := m.ForwardMixedInto(bw, tokens, positions, mixCaches, chs)
			for b := 0; b < B; b++ {
				equalStep(t, kind.name+" packed decode lane", results[b], wantStep[b])
				tokens[b] = tensor.Argmax(results[b].Logits)
				positions[b]++
			}
			for c, j := range idx {
				if chs[c].NeedLogits {
					gotFinal[j] = StepResult{
						Logits: append([]float32(nil), chunkRes[c].Logits...),
						Hidden: append([]float32(nil), chunkRes[c].Hidden...),
					}
				}
			}
		}
		for j := range prompts {
			equalStep(t, kind.name+" packed chunk final", gotFinal[j], wantFinal[j])
			equalCaches(t, kind.name+" packed chunk cache", packCaches[j], refCaches[j])
		}
		for b := 0; b < B; b++ {
			equalCaches(t, kind.name+" packed decode cache", mixCaches[b], seqCaches[b])
		}
	}
}

// TestForwardMixedIntoYieldsInsideThePass pins, by counts, that a fused pass
// offers its P three times a layer: on one P, a goroutine that takes one turn
// per offer has had 3 x Layers turns when the pass returns — or one fewer: on
// every 61st scheduling the Go runtime serves its global queue first, which
// hands one offer in 61 straight back to the pass, and two dozen schedulings
// hold at most one of those. A pass that holds the P from start to end gives
// the other goroutine no turn at all.
func TestForwardMixedIntoYieldsInsideThePass(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })

	m := New(Tiny(), 7)
	bw := m.NewBatchWorkspace(4)
	cache := kvcache.NewPagedKV(m.CacheShape(), 16)
	chs := []Chunk{{Tokens: []int{1, 2, 3, 4}, Cache: cache, NeedLogits: true}}

	var turns atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			turns.Add(1)
			runtime.Gosched()
		}
	}()
	runtime.Gosched() // the counter takes its first turn and queues behind this goroutine
	before := turns.Load()
	m.ForwardMixedInto(bw, nil, nil, nil, chs)
	got := turns.Load() - before
	close(stop)
	<-done
	if want := int64(3 * m.Config().Layers); got != want && got != want-1 {
		t.Fatalf("a goroutine sharing the P took %d turns during one pass, want %d (three a layer) or one fewer", got, want)
	}
}
