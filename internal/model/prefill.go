package model

import (
	"errors"
	"fmt"
	"runtime"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// This file is the model's one forward pass. A prompt can advance C
// positions per pass as a chunk instead of one decode lane per token, and the
// same pass can carry a running decode batch plus chunks from *several*
// prompts at once, so a scheduler can pack a per-iteration token budget
// with prefill work from every admitted prompt without stalling the decode
// streams (Sarathi/Orca-style stall-free chunked prefill). Each position the
// pass advances is one row of the workspace's row store (batch.go): the
// decode lanes first, then every chunk's positions in chunk order, so a
// chunk's K/V rows are one span its cache takes with one AppendFlatN per
// layer.
//
// Layer-synchronous chunking is exact, not approximate: within a layer,
// position p's attention reads the K/V of positions 0..p at that layer,
// which a chunk pass has just computed from the same layer-(l-1) residuals
// a token-at-a-time pass would have used. Chunks from distinct prompts
// write distinct caches, so packing them into one pass changes nothing
// about what any position attends over. Combined with the per-row
// bit-identical batched GEMMs (see gemm.go) and the shared attention
// arithmetic (attendOver), a chunked prefill is bit-identical to feeding the
// prompt one token at a time through a decode lane, for any chunk size and any
// packing — pinned by prefill_test.go.
//
// The pass computes only what is read. A chunk row's last-layer output is
// read only where it is a logits row (the last row of a chunk that asks for
// logits), so in the last layer every other chunk row takes the attention
// norm and its K/V — all a later position reads of it — and nothing else: no
// query, attention, output projection, FFN, final norm or LM head. On
// small-llama (4 layers) that is 23 % of a prefill token's projection MACs,
// a share that scales as 1/Layers. Since a GEMM lane's result does not depend
// on the lane count and a row's attention does not depend on what shares its
// block, every row still computed gets the same bits.

// ErrChunkNotPositional is wrapped by the panic of a prefill chunk whose
// cache, once it took the chunk, does not hold every position up to the
// chunk's end in some KV head — an eviction cache past its budget: chunk
// attention bounds each row by absolute position, which only a cache that
// retains every token can answer.
var ErrChunkNotPositional = errors.New("model: prefill chunk into a cache that dropped positions")

// Chunk describes one contiguous span of prompt positions advanced through
// the fused plane in a single pass. The cache must already hold exactly Pos
// tokens (0 for a cold start; a ClonePrefix prefix or earlier chunks
// otherwise) and must retain every position through the chunk (Full,
// PagedKV, an eviction cache within its budget): chunk attention addresses
// the causal prefix by absolute position, and a chunk into a cache that
// drops one panics with ErrChunkNotPositional.
type Chunk struct {
	// Tokens is the span's token ids, non-empty.
	Tokens []int
	// Pos is the absolute position of Tokens[0].
	Pos int
	// Cache receives the span's K/V; distinct from every decode lane's and
	// from every other chunk's in the same pass.
	Cache kvcache.Cache
	// NeedLogits requests the last position's logits — set on the prompt's
	// final chunk, where they decide the first decoded token. Only that row
	// runs the last layer past its K/V, the final norm and the LM head; an
	// intermediate chunk's rows run none of them (the cache state they leave
	// behind is all that matters), which skips the work a token-at-a-time
	// prefill pays without using. A chunk whose cache observes attention
	// (kvcache.AttentionObserver) is computed in full, so the observer sees
	// every row in every layer.
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
// alone, K = 0 is a plain batched decode step, and a stream run alone is
// B = 1: this is the model's only forward pass, for serving and offline
// evaluation alike.
//
// Per decode lane the outputs are bit-identical to the same stream stepped
// alone at one lane: the projections are the same tile loop over the same
// packed weights, whose per-output reduction order does not depend on the lane
// count (tensor/gemm.go), and attention/norms/activations are per row. Each
// chunk's cache writes (and final logits, when requested) are bit-identical to
// feeding the span one token at a time through a decode lane, regardless of
// what else shares the pass. The second return value holds one StepResult per chunk,
// index-aligned (zero unless that chunk's NeedLogits is set). Results alias
// bw and are valid until the next call; steady-state stepping performs zero
// heap allocations beyond cache page growth.
//
// Only the pass's live rows (gatherLive) — the decode lanes, each logits
// chunk's last row, an observed chunk's every row — run the last layer past
// its K/V projections, and only they take the final norm and the LM head.
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
	if len(bw.chunkPaths) < K {
		bw.chunkPaths, bw.chunkResults = make([]cachePath, K), make([]StepResult, K)
	}
	for j := 0; j < K; j++ {
		bw.chunkPaths[j] = pathOf(chunks[j].Cache)
	}
	n := B + C
	if n == 0 {
		return nil, nil
	}
	bw.EnsureLanes(n)
	for b := 0; b < B; b++ {
		tok := tokens[b]
		if tok < 0 || tok >= m.cfg.Vocab {
			panic(fmt.Sprintf("model: token %d out of range", tok))
		}
		if got := caches[b].Shape(); got != want {
			panic(fmt.Sprintf("model: cache shape %+v does not match model %+v", got, want))
		}
		bw.paths[b] = pathOf(caches[b])
		bw.embed(b, tok, positions[b])
	}
	row := B
	for j := 0; j < K; j++ {
		ch := &chunks[j]
		for i, tok := range ch.Tokens {
			if tok < 0 || tok >= m.cfg.Vocab {
				panic(fmt.Sprintf("model: token %d out of range", tok))
			}
			bw.embed(row, tok, ch.Pos+i)
			row++
		}
	}

	all := bw.rows(0, n)
	live := bw.gatherLive(B, chunks)

	last := len(m.layers) - 1
	for l := range m.layers {
		lw := &m.layers[l]
		// Every row's K/V is kept, so every row takes the attention norm and
		// the K/V projections in every layer. Past those, a layer runs over
		// rs: every row, but in the last layer only the live rows — no other
		// row's output is read once its K/V is in the cache.
		rs := all
		if l == last {
			rs = live
		}
		tensor.RMSNormRowsInto(all.xs, all.hs, lw.attnNorm, 1e-5)
		lw.wk.MulInto(all.ks, all.xs)
		lw.wv.MulInto(all.vs, all.xs)
		lw.wq.MulInto(rs.qs, rs.xs)
		// The layer's one RoPE site: every row's key heads and rs's query
		// heads rotate in place at their row's position, before any key is
		// appended or read.
		for b := range all.ks {
			m.rope(all.ks[b], m.cfg.KVHeads, all.sins[b], all.coss[b])
		}
		for b := range rs.qs {
			m.rope(rs.qs[b], m.cfg.Heads, rs.sins[b], rs.coss[b])
		}
		bw.attend(l, B)
		lo := B
		for j := 0; j < K; j++ {
			cj := len(chunks[j].Tokens)
			from := 0
			if l == last {
				from = liveFrom(&chunks[j], &bw.chunkPaths[j])
			}
			bw.attendChunk(&bw.chunkPaths[j], l, lo, from, cj, chunks[j].Pos)
			lo += cj
		}
		lw.wo.MulInto(rs.projs, rs.attnOuts)
		for b := range rs.hs {
			tensor.AXPY(rs.hs[b], 1, rs.projs[b])
		}
		// Offer the processor after the attention block, after gate/up and
		// after down: three times a layer, so a pass holds its P for one
		// group of GEMMs, not for the whole step (see the function comment).
		runtime.Gosched()
		tensor.RMSNormRowsInto(rs.xs, rs.hs, lw.ffnNorm, 1e-5)
		lw.wGate.MulInto(rs.gates, rs.xs)
		lw.wUp.MulInto(rs.ups, rs.xs)
		for b := range rs.gates {
			tensor.SiLUMul(rs.gates[b], rs.ups[b])
		}
		runtime.Gosched()
		lw.wDown.MulInto(rs.downs, rs.gates)
		for b := range rs.hs {
			tensor.AXPY(rs.hs[b], 1, rs.downs[b])
		}
		runtime.Gosched()
	}

	// The final norm and the LM head (Vocab × Hidden per row) run over the
	// live rows: the decode lanes and each chunk's last position when its
	// caller asked for it (an observed chunk's every row).
	tensor.RMSNormRowsInto(live.finals, live.hs, m.norm, 1e-5)
	m.embedT.MulInto(live.logits, live.finals)

	for b := 0; b < B; b++ {
		bw.results[b] = StepResult{Logits: bw.logits[b], Hidden: bw.finals[b]}
		// Drop the cache references: a parked batch workspace
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
	bw.seq = seqPage{} // nor the Seq rows walked last
	return bw.results[:B], bw.chunkResults[:K]
}

// PrefillChunkInto prefills prompt into cache through the fused plane,
// chunkSize positions per pass (chunkSize <= 0, or larger than the prompt,
// means a single pass). The cache may already hold tokens — a ClonePrefix
// prefix, or earlier chunks — and must retain every position (see Chunk);
// the prompt lands after them. Cache contents and the returned
// last-position result are bit-identical to feeding the same tokens one at a
// time through a decode lane, for every chunk size; the result aliases bw like
// ForwardMixedInto's.
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

// liveFrom is the index of a chunk's first live row: the first of its rows
// whose last-layer output anyone reads. An observed chunk's rows are all live
// (the observer sees every row's attention weights in every layer), a logits
// chunk's last row is, and an intermediate chunk has none (C).
func liveFrom(ch *Chunk, cp *cachePath) int {
	switch {
	case cp.observer != nil:
		return 0
	case ch.NeedLogits:
		return len(ch.Tokens) - 1
	}
	return len(ch.Tokens)
}

// gatherLive sets bw.live to the pass's live rows — the decode lanes, then
// each chunk's rows from liveFrom on — and returns it.
func (bw *BatchWorkspace) gatherLive(B int, chunks []Chunk) rowViews {
	live := bw.live.rows(0, 0)
	for b := 0; b < B; b++ {
		live.add(&bw.rowViews, b)
	}
	row := B
	for j := range chunks {
		c := len(chunks[j].Tokens)
		for i := liveFrom(&chunks[j], &bw.chunkPaths[j]); i < c; i++ {
			live.add(&bw.rowViews, row+i)
		}
		row += c
	}
	bw.live = live
	return live
}

// embed sets row r to token tok's embedding and its RoPE coefficients to
// position pos's.
func (bw *BatchWorkspace) embed(r, tok, pos int) {
	copy(bw.hs[r], bw.m.embed.Row(tok))
	tensor.RoPESincosInto(bw.sins[r], bw.coss[r], bw.m.ropeFreqs, pos)
}

// rope rotates the first heads heads of x in place by the coefficients
// sin, cos.
func (m *Model) rope(x []float32, heads int, sin, cos []float32) {
	hd := m.cfg.HeadDim
	for h := 0; h < heads; h++ {
		tensor.ApplyRoPECached(x[h*hd:(h+1)*hd], sin, cos)
	}
}

// attendChunk runs one layer's attention for a prefill chunk occupying rows
// [lo, lo+C): land all C rows' K/V in the cache with one AppendFlatN — the
// rows are one span of the K and V matrices — then accumulate the causally
// bounded attention of rows [lo+from, lo+C): position Pos+i attends over the
// first Pos+i+1 entries of this chunk's own cache, exactly the set a
// token-at-a-time prefill would have seen. A kvcache.Paged cache retains
// every token by contract; any other is checked, and attendChunk panics with
// ErrChunkNotPositional unless every KV head then holds exactly Pos+C
// entries. The rows share each KV head's page walk (attendOver), and a row's
// attention does not depend on which others share it, so rows before from —
// whose output nobody reads — are skipped.
func (bw *BatchWorkspace) attendChunk(cp *cachePath, l, lo, from, C, pos int) {
	cp.cache.AppendFlatN(l, C, flatRows(bw.ks, lo, lo+C), flatRows(bw.vs, lo, lo+C))
	for kh := 0; cp.paged == nil && kh < bw.m.cfg.KVHeads; kh++ {
		if n := cp.cache.Len(l, kh); n != pos+C {
			panic(fmt.Errorf("%w: layer %d KV head %d holds %d entries through position %d", ErrChunkNotPositional, l, kh, n, pos+C))
		}
	}
	if from < C {
		bw.attendOver(bw.qs[lo+from:lo+C], bw.attnOuts[lo+from:lo+C], cp, l, pos+from+1)
	}
}
