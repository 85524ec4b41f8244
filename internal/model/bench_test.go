package model

import (
	"fmt"
	"runtime"
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prefill(prompt, kvcache.NewFull(m.CacheShape()))
	}
}

// BenchmarkPrefillChunked256 prefills the same 256-token prompt through
// the fused chunk plane (32 positions per pass) — same cache contents and
// final logits as BenchmarkPrefill256, with the projection GEMMs batched
// across prompt positions instead of one VecMat per token.
func BenchmarkPrefillChunked256(b *testing.B) {
	m := New(Tiny(), 1)
	bw := m.NewBatchWorkspace(0)
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PrefillChunkInto(bw, prompt, 32, kvcache.NewFull(m.CacheShape()))
	}
}

func BenchmarkDecodeStep(b *testing.B) {
	m := New(Tiny(), 1)
	cache := kvcache.NewFull(m.CacheShape())
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	m.Prefill(prompt, cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(i%Tiny().Vocab, 256+i, cache)
	}
}

// BenchmarkDecodeSteady measures the steady-state decode hot path: a
// workspace-driven ForwardInto over a flat cache, with the context length
// held inside [256, 512) so the cost per step does not depend on b.N (unlike
// BenchmarkDecodeStep, whose cache grows for the whole run). The cache
// rebuild every 256 steps happens off the clock.
func BenchmarkDecodeSteady(b *testing.B) {
	m := New(Tiny(), 1)
	ws := m.NewWorkspace()
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	cache := kvcache.NewFull(m.CacheShape())
	m.PrefillInto(ws, prompt, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cache.TotalAppended() >= 512 {
			b.StopTimer()
			cache = kvcache.NewFull(m.CacheShape())
			m.PrefillInto(ws, prompt, cache)
			b.StartTimer()
		}
		m.ForwardInto(ws, i%Tiny().Vocab, cache.TotalAppended(), cache)
	}
}

// Batched steady-state decode: 8 concurrent streams, context held in
// [64, 128) per stream — the short-to-mid context regime where weight
// streaming dominates a decode step, which is the regime batched serving
// amortizes. Each benchmark iteration advances all 8 streams one token;
// aggregate tokens/s = 8e9 / ns_per_op. The *Sequential twins run the
// identical workload through 8 independent per-session ForwardInto steps
// (the pre-fusion StepAll plane), so fused/sequential is the speedup of
// the weight-stationary batched plane; output streams are bit-identical
// between the two (TestForwardBatchIntoBitIdentical).
func benchSteadyBatch(b *testing.B, cfg Config, fused bool) {
	const B = 8
	m := New(cfg, 1)
	ws := m.NewWorkspace()
	bw := m.NewBatchWorkspace(B)
	// Mirror core.StepMixedStatsInto: -cpu 1 benches the serial fused step,
	// -cpu 4 the panel/lane-sharded one.
	bw.SetWorkers(runtime.GOMAXPROCS(0))
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
			m.PrefillInto(ws, prompt, caches[lane])
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
				sr := m.ForwardInto(ws, tokens[lane], positions[lane], caches[lane])
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
	ws := m.NewWorkspace()
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	cache := kvcache.NewPagedKV(m.CacheShape(), 16)
	m.PrefillInto(ws, prompt, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cache.TotalAppended() >= 512 {
			b.StopTimer()
			cache = kvcache.NewPagedKV(m.CacheShape(), 16)
			m.PrefillInto(ws, prompt, cache)
			b.StartTimer()
		}
		m.ForwardInto(ws, i%Tiny().Vocab, cache.TotalAppended(), cache)
	}
}

// BenchmarkDecodeSteadyQuant is BenchmarkDecodeSteadyPaged over quantized
// pages: the per-element dequantization ALU cost the fused stream path pays
// for holding 4-8x more context in the same page-byte budget.
func BenchmarkDecodeSteadyQuant(b *testing.B) {
	for _, bits := range []int{8, 4} {
		b.Run(fmt.Sprintf("int%d", bits), func(b *testing.B) {
			m := New(Tiny(), 1)
			ws := m.NewWorkspace()
			prompt := make([]int, 256)
			for i := range prompt {
				prompt[i] = i % Tiny().Vocab
			}
			cache := kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, bits)
			m.PrefillInto(ws, prompt, cache)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cache.TotalAppended() >= 512 {
					b.StopTimer()
					cache = kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, bits)
					m.PrefillInto(ws, prompt, cache)
					b.StartTimer()
				}
				m.ForwardInto(ws, i%Tiny().Vocab, cache.TotalAppended(), cache)
			}
		})
	}
}
