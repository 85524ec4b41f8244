package model

import (
	"fmt"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

func BenchmarkPrefill256(b *testing.B) {
	m := New(Tiny(), 1)
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	s := newSolo(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := kvcache.NewFull(m.CacheShape())
		b.StartTimer()
		s.prefill(prompt, cache)
	}
}

// BenchmarkPrefillChunked256 prefills the same 256-token prompt through
// the fused chunk plane (32 positions per pass) — same cache contents and
// final logits as BenchmarkPrefill256, with the projection GEMMs batched
// across prompt positions instead of one VecMat per token. Both build each
// prompt's cache off the clock, as BenchmarkDecodeSteady rebuilds its own.
func BenchmarkPrefillChunked256(b *testing.B) {
	m := New(Tiny(), 1)
	bw := m.NewBatchWorkspace(0)
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := kvcache.NewFull(m.CacheShape())
		b.StartTimer()
		m.PrefillChunkInto(bw, prompt, 32, cache)
	}
}

func BenchmarkDecodeStep(b *testing.B) {
	m := New(Tiny(), 1)
	cache := kvcache.NewFull(m.CacheShape())
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	s := newSolo(m)
	s.prefill(prompt, cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(i%Tiny().Vocab, 256+i, cache)
	}
}

// BenchmarkDecodeSteady measures the steady-state decode hot path: one
// stream stepped alone at one lane over a flat cache, with the context length
// held inside [256, 512) so the cost per step does not depend on b.N (unlike
// BenchmarkDecodeStep, whose cache grows for the whole run). The cache
// rebuild every 256 steps happens off the clock.
func BenchmarkDecodeSteady(b *testing.B) {
	m := New(Tiny(), 1)
	ws := newSolo(m)
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	cache := kvcache.NewFull(m.CacheShape())
	ws.prefill(prompt, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cache.TotalAppended() >= 512 {
			b.StopTimer()
			cache = kvcache.NewFull(m.CacheShape())
			ws.prefill(prompt, cache)
			b.StartTimer()
		}
		ws.step(i%Tiny().Vocab, cache.TotalAppended(), cache)
	}
}

// Batched steady-state decode: 8 concurrent streams, context held in
// [64, 128) per stream — the short-to-mid context regime where weight
// streaming dominates a decode step, which is the regime batched serving
// amortizes. Each benchmark iteration advances all 8 streams one token;
// aggregate tokens/s = 8e9 / ns_per_op. The *Sequential twins run the
// identical workload as 8 one-lane steps, one per stream, so
// fused/sequential is the speedup of loading each weight once for the batch;
// output streams are bit-identical between the two
// (TestForwardBatchIntoBitIdentical).
func benchSteadyBatch(b *testing.B, cfg Config, fused bool) {
	const B = 8
	m := New(cfg, 1)
	ws := newSolo(m)
	bw := m.NewBatchWorkspace(B)
	caches := make([]kvcache.Cache, B)
	tokens := make([]int, B)
	positions := make([]int, B)
	reset := func() {
		for lane := 0; lane < B; lane++ {
			caches[lane] = kvcache.NewFull(m.CacheShape())
			n := 64 + lane
			prompt := make([]int, n)
			for i := range prompt {
				prompt[i] = (lane*131 + i*17) % cfg.Vocab
			}
			ws.prefill(prompt, caches[lane])
			positions[lane] = n
			tokens[lane] = (lane * 37) % cfg.Vocab
		}
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if positions[0] >= 128 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		if fused {
			results, _ := m.ForwardMixedInto(bw, tokens, positions, caches, nil)
			for lane := range results {
				tokens[lane] = tensor.Argmax(results[lane].Logits)
				positions[lane]++
			}
		} else {
			for lane := 0; lane < B; lane++ {
				sr := ws.step(tokens[lane], positions[lane], caches[lane])
				tokens[lane] = tensor.Argmax(sr.Logits)
				positions[lane]++
			}
		}
	}
}

func BenchmarkDecodeSteadyBatched(b *testing.B)        { benchSteadyBatch(b, Small(), true) }
func BenchmarkDecodeSteadySequential(b *testing.B)     { benchSteadyBatch(b, Small(), false) }
func BenchmarkDecodeSteadyBatchedTiny(b *testing.B)    { benchSteadyBatch(b, Tiny(), true) }
func BenchmarkDecodeSteadySequentialTiny(b *testing.B) { benchSteadyBatch(b, Tiny(), false) }

// BenchmarkDecodeSteadyPaged is BenchmarkDecodeSteady over the page-granular
// flat cache, pricing the block-table indirection of the paged hot path.
func BenchmarkDecodeSteadyPaged(b *testing.B) {
	m := New(Tiny(), 1)
	ws := newSolo(m)
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	cache := kvcache.NewPagedKV(m.CacheShape(), 16)
	ws.prefill(prompt, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cache.TotalAppended() >= 512 {
			b.StopTimer()
			cache = kvcache.NewPagedKV(m.CacheShape(), 16)
			ws.prefill(prompt, cache)
			b.StartTimer()
		}
		ws.step(i%Tiny().Vocab, cache.TotalAppended(), cache)
	}
}

// BenchmarkDecodeSteadyQuant is BenchmarkDecodeSteadyPaged over quantized
// pages: the per-element dequantization ALU cost the fused stream path pays
// for holding 4-8x more context in the same page-byte budget.
func BenchmarkDecodeSteadyQuant(b *testing.B) {
	for _, bits := range []int{8, 4} {
		b.Run(fmt.Sprintf("int%d", bits), func(b *testing.B) {
			m := New(Tiny(), 1)
			ws := newSolo(m)
			prompt := make([]int, 256)
			for i := range prompt {
				prompt[i] = i % Tiny().Vocab
			}
			cache := kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, bits)
			ws.prefill(prompt, cache)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cache.TotalAppended() >= 512 {
					b.StopTimer()
					cache = kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, bits)
					ws.prefill(prompt, cache)
					b.StartTimer()
				}
				ws.step(i%Tiny().Vocab, cache.TotalAppended(), cache)
			}
		})
	}
}

// BenchmarkDecodeBatchSizes prices one fused decode step of small-llama at
// every lane count from 1 to 8 over int8 pages (16 tokens each, from one
// pool), every lane's context held in [64, 128): the serving shape of
// kv_pressure_int8, whose steps run five to seven lanes as often as eight. A
// lane-count cliff — a lane count whose step costs more than the next larger
// one's — shows here, and so does the per-lane cost of each tile height. The refill prefills every lane's prompt in one batched pass, its
// chunks packed as the scheduler packs them, off the clock.
func BenchmarkDecodeBatchSizes(b *testing.B) {
	cfg := Small()
	m := New(cfg, 1)
	for B := 1; B <= 8; B++ {
		b.Run(fmt.Sprintf("b%d", B), func(b *testing.B) {
			bw := m.NewBatchWorkspace(B)
			pool := kvcache.NewPagePool(m.CacheShape(), 16, 0, 8, false)
			caches := make([]kvcache.Cache, B)
			tokens, positions := make([]int, B), make([]int, B)
			chunks := make([]Chunk, B)
			refill := func() {
				for lane := range caches {
					if c, ok := caches[lane].(*kvcache.PagedKV); ok {
						c.Release(0)
					}
					c := pool.NewCache()
					prompt := make([]int, 64+lane)
					for i := range prompt {
						prompt[i] = (lane*131 + i*17) % cfg.Vocab
					}
					caches[lane], positions[lane], tokens[lane] = c, len(prompt), (lane*37)%cfg.Vocab
					chunks[lane] = Chunk{Tokens: prompt, Cache: c}
				}
				m.ForwardMixedInto(bw, nil, nil, nil, chunks)
			}
			refill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if positions[0] >= 128 {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				results, _ := m.ForwardMixedInto(bw, tokens, positions, caches, nil)
				for lane := range results {
					tokens[lane] = tensor.Argmax(results[lane].Logits)
					positions[lane]++
				}
			}
		})
	}
}

// BenchmarkMixedStepSmall prices one fused step of small-llama at the served
// shape of longdoc_mixed, where nine steps in ten are mixed: six decode lanes
// at context ≈ 150, one 32-row intermediate chunk (no logits) and one 16-row
// final chunk (logits) — 54 rows a step, every cache on fp32 16-token pages
// from one pool. The caches are rebuilt off the clock every eight steps, so
// the decode contexts stay in [146, 159), the intermediate chunk starts at
// 0–224 and the final chunk at 0–112.
func BenchmarkMixedStepSmall(b *testing.B) {
	const lanes, cycle = 6, 8
	cfg := Small()
	m := New(cfg, 1)
	bw := m.NewBatchWorkspace(lanes + 48)
	pool := kvcache.NewPagePool(m.CacheShape(), 16, 0, 0, false)
	caches := make([]kvcache.Cache, lanes)
	tokens, positions := make([]int, lanes), make([]int, lanes)
	var inter, final *kvcache.PagedKV
	interToks, finalToks := make([]int, 32), make([]int, 16)
	for i := range interToks {
		interToks[i] = (i*29 + 5) % cfg.Vocab
	}
	for i := range finalToks {
		finalToks[i] = (i*41 + 3) % cfg.Vocab
	}
	chunks := make([]Chunk, 2)
	step := 0
	refill := func() {
		for lane := range caches {
			if c, ok := caches[lane].(*kvcache.PagedKV); ok {
				c.Release(0)
			}
		}
		if inter != nil {
			inter.Release(0)
			final.Release(0)
		}
		prefill := make([]Chunk, lanes)
		for lane := range caches {
			c := pool.NewCache()
			prompt := make([]int, 146+lane)
			for i := range prompt {
				prompt[i] = (lane*131 + i*17) % cfg.Vocab
			}
			caches[lane], positions[lane], tokens[lane] = c, len(prompt), (lane*37)%cfg.Vocab
			prefill[lane] = Chunk{Tokens: prompt, Cache: c}
		}
		m.ForwardMixedInto(bw, nil, nil, nil, prefill)
		inter, final = pool.NewCache(), pool.NewCache()
		step = 0
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if step == cycle {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		chunks[0] = Chunk{Tokens: interToks, Pos: 32 * step, Cache: inter}
		chunks[1] = Chunk{Tokens: finalToks, Pos: 16 * step, Cache: final, NeedLogits: true}
		results, _ := m.ForwardMixedInto(bw, tokens, positions, caches, chunks)
		for lane := range results {
			tokens[lane] = tensor.Argmax(results[lane].Logits)
			positions[lane]++
		}
		step++
	}
}
