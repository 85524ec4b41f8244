package model

import (
	"fmt"
	"runtime"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// This file is the chunk-granular prefill plane: a prompt advances C
// positions per fused pass instead of one ForwardInto per token, and the
// same pass can carry a running decode batch plus chunks from *several*
// prompts at once, so a scheduler can pack a per-iteration token budget
// with prefill work from every admitted prompt without stalling the decode
// streams (Sarathi/Orca-style stall-free chunked prefill).
//
// Layer-synchronous chunking is exact, not approximate: within a layer,
// position p's attention reads the K/V of positions 0..p at that layer,
// which a chunk pass has just computed from the same layer-(l-1) residuals
// a token-at-a-time pass would have used. Chunks from distinct prompts
// write distinct caches, so packing them into one pass changes nothing
// about what any position attends over. Combined with the per-lane
// bit-identical batched GEMMs (see gemm.go) and the shared attention
// arithmetic (attendOver), a chunked prefill is bit-identical to
// PrefillInto for any chunk size and any packing — pinned by
// prefill_test.go.

// Chunk describes one contiguous span of prompt positions advanced through
// the fused plane in a single pass. The cache must already hold exactly Pos
// tokens (0 for a cold start; a ClonePrefix prefix or earlier chunks
// otherwise) and must retain every position (Full, PagedKV): chunk
// attention addresses the causal prefix by absolute position.
type Chunk struct {
	// Tokens is the span's token ids, non-empty.
	Tokens []int
	// Pos is the absolute position of Tokens[0].
	Pos int
	// Cache receives the span's K/V; distinct from every decode lane's and
	// from every other chunk's in the same pass.
	Cache kvcache.Cache
	// NeedLogits requests the last position's logits — set on the prompt's
	// final chunk, where they decide the first decoded token. Intermediate
	// chunks skip the LM head entirely (the cache state they leave behind
	// is all that matters), which also skips the one per-token cost
	// PrefillInto pays without using.
	NeedLogits bool
}

// ForwardMixedInto is the fused forward pass: one weight-stationary pass per
// layer that advances B = len(tokens) decode streams one token each and, in
// the same pass, any number of prefill chunks from distinct prompts. Decode
// stream b forwards tokens[b] at absolute position positions[b], appending
// to caches[b] and attending over what that cache retains; chunk j advances
// len(chunks[j].Tokens) positions of its own prompt. Each projection matrix
// is loaded once for B decode lanes plus ΣC chunk positions instead of once
// per stream. Attention stays per-stream: decode lanes attend over their own
// caches, each chunk's positions causally over that chunk's own cache. Every
// lane and every chunk appends to its cache, so all B + K caches must be
// pairwise distinct (sharing one would append twice per layer and corrupt
// both streams); they must match the model's shape. B = 0 runs the chunks
// alone, K = 0 is a plain batched decode step, and a batch of one is just
// B = 1 — there is no separate single-stream path on this plane.
//
// Per decode lane the outputs are bit-identical to
// ForwardInto(ws, tokens[b], positions[b], caches[b]): the projections are the
// same tile loop over the same packed weights, whose per-output reduction
// order does not depend on the lane count (tensor/gemm.go), and
// attention/norms/activations share the per-stream code paths. Each chunk's
// cache writes (and final logits, when requested) are bit-identical to
// token-at-a-time PrefillInto over the same span, regardless of what else
// shares the pass. The second return value holds one StepResult per chunk,
// index-aligned (zero unless that chunk's NeedLogits is set). Results alias
// bw and are valid until the next call; steady-state stepping performs zero
// heap allocations (Workers == 1) beyond cache page growth.
//
// The pass calls runtime.Gosched three times a layer. A serving loop that
// steps back to back would otherwise hold its P for a whole pass — 20 ms at a
// 72-token budget on a slow core — and whatever runs when it lets go (a
// stream's reader, a timer's goroutine) inherits that time slice: the
// runtime's 10 ms forced preemption then lands on the goroutine that has just
// started instead of on the one that used the slice up, and parks it behind
// the next whole pass. Yielding inside the pass keeps every slice a few
// milliseconds old at most, so nothing is force-preempted at all. With nothing
// else runnable a yield is one trip through the Go scheduler (~0.16 µs), and
// it neither allocates nor touches the arithmetic.
func (m *Model) ForwardMixedInto(bw *BatchWorkspace, tokens, positions []int, caches []kvcache.Cache, chunks []Chunk) ([]StepResult, []StepResult) {
	B := len(tokens)
	if len(positions) != B || len(caches) != B {
		panic("model: batch length mismatch")
	}
	if bw.m != m {
		panic("model: batch workspace belongs to a different model")
	}
	want := m.CacheShape()
	K := len(chunks)
	C := 0
	for j := 0; j < K; j++ {
		ch := &chunks[j]
		if len(ch.Tokens) == 0 {
			panic("model: empty prefill chunk")
		}
		if got := ch.Cache.Shape(); got != want {
			panic(fmt.Sprintf("model: chunk cache shape %+v does not match model %+v", got, want))
		}
		if held := ch.Cache.TotalAppended(); held != ch.Pos {
			panic(fmt.Sprintf("model: chunk cache holds %d tokens, chunk starts at %d", held, ch.Pos))
		}
		for i := 0; i < j; i++ {
			if chunks[i].Cache == ch.Cache {
				panic("model: packed chunks share a cache")
			}
		}
		for b := 0; b < B; b++ {
			if caches[b] == ch.Cache {
				panic("model: prefill chunk shares a decode lane's cache")
			}
		}
		C += len(ch.Tokens)
	}
	for b := 1; b < B; b++ {
		for a := 0; a < b; a++ {
			if caches[a] == caches[b] {
				panic("model: decode lanes share a cache")
			}
		}
	}
	bw.ensureChunkSlots(K)
	for j := 0; j < K; j++ {
		bw.chunkPaths[j] = pathOf(chunks[j].Cache)
	}
	n := B + C
	if n == 0 {
		return nil, nil
	}
	bw.EnsureLanes(n)
	bw.ensureChunk(C)
	for b := 0; b < B; b++ {
		tok := tokens[b]
		if tok < 0 || tok >= m.cfg.Vocab {
			panic(fmt.Sprintf("model: token %d out of range", tok))
		}
		if got := caches[b].Shape(); got != want {
			panic(fmt.Sprintf("model: cache shape %+v does not match model %+v", got, want))
		}
		bw.paths[b] = pathOf(caches[b])
		ws := bw.lanes[b]
		copy(ws.h, m.embed.Row(tok))
		tensor.RoPESincosInto(ws.ropeSin, ws.ropeCos, m.ropeFreqs, positions[b])
	}
	row := B
	for j := 0; j < K; j++ {
		ch := &chunks[j]
		for i, tok := range ch.Tokens {
			if tok < 0 || tok >= m.cfg.Vocab {
				panic(fmt.Sprintf("model: token %d out of range", tok))
			}
			ws := bw.lanes[row]
			copy(ws.h, m.embed.Row(tok))
			tensor.RoPESincosInto(ws.ropeSin, ws.ropeCos, m.ropeFreqs, ch.Pos+i)
			row++
		}
	}

	hs, xs, qs := bw.hs[:n], bw.xs[:n], bw.qs[:n]
	attnOuts, projs := bw.attnOuts[:n], bw.projs[:n]
	gates, ups, downs := bw.gates[:n], bw.ups[:n], bw.downs[:n]

	// K/V projection destinations: decode lanes keep their per-lane
	// buffers; chunk positions write straight into the contiguous staging
	// span — chunk j owns staging tokens [off_j, off_j+C_j) — so every
	// chunk appends without a gather copy.
	ks, vs := bw.ks[:n], bw.vs[:n]
	if C > 0 {
		ks = append(bw.mixKs[:0], bw.ks[:B]...)
		vs = append(bw.mixVs[:0], bw.vs[:B]...)
		ks = append(ks, bw.ckTok[:C]...)
		vs = append(vs, bw.cvTok[:C]...)
		bw.mixKs, bw.mixVs = ks, vs
	}

	for l := range m.layers {
		lw := &m.layers[l]
		tensor.RMSNormRowsInto(xs, hs, lw.attnNorm, 1e-5)
		bw.project(qs, xs, lw.wq)
		bw.project(ks, xs, lw.wk)
		bw.project(vs, xs, lw.wv)
		bw.attend(l, B)
		off := 0
		for j := 0; j < K; j++ {
			cj := len(chunks[j].Tokens)
			m.attendChunk(bw, &bw.chunkPaths[j], l, B+off, off, cj, chunks[j].Pos)
			off += cj
		}
		bw.project(projs, attnOuts, lw.wo)
		for b := 0; b < n; b++ {
			tensor.AXPY(hs[b], 1, projs[b])
		}
		// Offer the processor after the attention block, after gate/up and
		// after down: three times a layer, so a pass holds its P for one
		// group of GEMMs, not for the whole step (see the function comment).
		runtime.Gosched()
		tensor.RMSNormRowsInto(xs, hs, lw.ffnNorm, 1e-5)
		bw.project(gates, xs, lw.wGate)
		bw.project(ups, xs, lw.wUp)
		for b := 0; b < n; b++ {
			tensor.SiLUMul(gates[b], ups[b])
		}
		runtime.Gosched()
		bw.project(downs, gates, lw.wDown)
		for b := 0; b < n; b++ {
			tensor.AXPY(hs[b], 1, downs[b])
		}
		runtime.Gosched()
	}

	// Final norm is lane-local and cheap, so it runs for every row; the LM
	// head (Vocab × Hidden per row) runs only for the rows whose logits
	// anyone reads: the decode lanes, plus each chunk's last position when
	// its caller asked for it.
	finals := bw.finals[:n]
	tensor.RMSNormRowsInto(finals, hs, m.norm, 1e-5)
	needAny := false
	for j := 0; j < K; j++ {
		if chunks[j].NeedLogits {
			needAny = true
			break
		}
	}
	lmF, lmL := bw.finals[:B], bw.logits[:B]
	if needAny {
		lmF = append(bw.lmFinals[:0], bw.finals[:B]...)
		lmL = append(bw.lmLogits[:0], bw.logits[:B]...)
		end := B
		for j := 0; j < K; j++ {
			end += len(chunks[j].Tokens)
			if chunks[j].NeedLogits {
				lmF = append(lmF, bw.finals[end-1])
				lmL = append(lmL, bw.logits[end-1])
			}
		}
		bw.lmFinals, bw.lmLogits = lmF, lmL
	}
	bw.project(lmL, lmF, m.embedT)

	for b := 0; b < B; b++ {
		bw.results[b] = StepResult{Logits: bw.logits[b], Hidden: bw.finals[b]}
		// Drop the cache references: a parked (pooled) batch workspace
		// must not pin retired streams' KV memory.
		bw.paths[b] = cachePath{}
	}
	end := B
	for j := 0; j < K; j++ {
		end += len(chunks[j].Tokens)
		if chunks[j].NeedLogits {
			bw.chunkResults[j] = StepResult{Logits: bw.logits[end-1], Hidden: bw.finals[end-1]}
		} else {
			bw.chunkResults[j] = StepResult{}
		}
		bw.chunkPaths[j] = cachePath{}
	}
	return bw.results[:B], bw.chunkResults[:K]
}

// PrefillChunkInto prefills prompt into cache through the fused plane,
// chunkSize positions per pass (chunkSize <= 0, or larger than the prompt,
// means a single pass). The cache may already hold tokens — a ClonePrefix
// prefix, or earlier chunks — and must retain every position (Full,
// PagedKV); the prompt lands after them. Cache contents and the returned
// last-position result are bit-identical to PrefillInto of the same tokens,
// for every chunk size; the result aliases bw like ForwardMixedInto's.
func (m *Model) PrefillChunkInto(bw *BatchWorkspace, prompt []int, chunkSize int, cache kvcache.Cache) StepResult {
	if len(prompt) == 0 {
		panic("model: empty prompt")
	}
	if chunkSize <= 0 {
		chunkSize = len(prompt)
	}
	base := cache.TotalAppended()
	var chs [1]Chunk
	var res StepResult
	for off := 0; off < len(prompt); off += chunkSize {
		end := off + chunkSize
		if end > len(prompt) {
			end = len(prompt)
		}
		chs[0] = Chunk{
			Tokens:     prompt[off:end],
			Pos:        base + off,
			Cache:      cache,
			NeedLogits: end == len(prompt),
		}
		_, cres := m.ForwardMixedInto(bw, nil, nil, nil, chs[:])
		res = cres[0]
		chs[0] = Chunk{}
	}
	return res
}

// ensureChunk grows the contiguous chunk staging buffers to at least c
// positions, rebuilding the per-token (and per-head fallback) views.
func (bw *BatchWorkspace) ensureChunk(c int) {
	if c <= bw.chunkCap {
		return
	}
	cfg := bw.m.cfg
	hd := cfg.HeadDim
	stride := cfg.KVDim()
	bw.ck = make([]float32, c*stride)
	bw.cv = make([]float32, c*stride)
	bw.ckTok = make([][]float32, c)
	bw.cvTok = make([][]float32, c)
	bw.ckHeads = make([][][]float32, c)
	bw.cvHeads = make([][][]float32, c)
	for i := 0; i < c; i++ {
		bw.ckTok[i] = bw.ck[i*stride : (i+1)*stride]
		bw.cvTok[i] = bw.cv[i*stride : (i+1)*stride]
		bw.ckHeads[i] = make([][]float32, cfg.KVHeads)
		bw.cvHeads[i] = make([][]float32, cfg.KVHeads)
		for kh := 0; kh < cfg.KVHeads; kh++ {
			bw.ckHeads[i][kh] = bw.ckTok[i][kh*hd : (kh+1)*hd]
			bw.cvHeads[i][kh] = bw.cvTok[i][kh*hd : (kh+1)*hd]
		}
	}
	bw.chunkCap = c
}

// attendChunk runs one layer's attention for a prefill chunk occupying
// lanes [base, base+C) and staging tokens [tokOff, tokOff+C): RoPE the
// chunk's keys in place inside its staging span, land all C tokens' K/V in
// the cache — one AppendFlatN when the cache is paged, else per-token
// appends of the same bytes — then accumulate each position's causally
// bounded attention: position Pos+i attends over the first Pos+i+1 entries
// of this chunk's own cache, exactly the set a token-at-a-time prefill
// would have seen. Positions are independent once the K/V are cached, so
// attention shards by rows across workers like decode by lanes; within a
// shard, consecutive rows share each KV head's page walk (attendOver).
func (m *Model) attendChunk(bw *BatchWorkspace, cp *cachePath, l, base, tokOff, C, pos int) {
	cfg := m.cfg
	hd := cfg.HeadDim
	stride := cfg.KVDim()
	for i := 0; i < C; i++ {
		ws := bw.lanes[base+i]
		off := (tokOff + i) * stride
		for kh := 0; kh < cfg.KVHeads; kh++ {
			tensor.ApplyRoPECached(bw.ck[off+kh*hd:off+(kh+1)*hd], ws.ropeSin, ws.ropeCos)
		}
	}
	if cp.paged != nil {
		cp.paged.AppendFlatN(l, C, bw.ck[tokOff*stride:(tokOff+C)*stride], bw.cv[tokOff*stride:(tokOff+C)*stride])
	} else {
		for i := 0; i < C; i++ {
			cp.cache.Append(l, bw.ckHeads[tokOff+i], bw.cvHeads[tokOff+i])
		}
	}
	if shards := min(bw.workers, C); shards > 1 {
		runShards(shards, C, func(s, lo, hi int) {
			m.attendOver(bw.lanes[base+lo:base+hi], bw.blks[s], cp, l, pos+lo+1)
		})
		return
	}
	m.attendOver(bw.lanes[base:base+C], bw.blks[0], cp, l, pos+1)
}
