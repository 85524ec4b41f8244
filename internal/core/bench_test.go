package core

import (
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
)

// BenchmarkDecodeMethods prices one batch-8 decode step of small-llama,
// through model.ForwardMixedInto, on every registered method's own cache
// (compress.Names(), each walked as one Seq page per KV head unless the
// cache is paged) and,
// as reference rows, on the fp32 and int8 16-token pages of a PagePool — the
// caches the engine serves. Every lane's context stays in [128, 256): the
// lanes prefill 128 tokens one token a step, as the offline Session does, and
// are rebuilt when they reach 256, both off the clock.
func BenchmarkDecodeMethods(b *testing.B) {
	const lanes, prompt, ctxEnd = 8, 128, 256
	cfg := model.Small()
	m := model.New(cfg, 1)
	shape := m.CacheShape()
	type row struct {
		name     string
		newCache func() kvcache.Cache
	}
	var rows []row
	for _, pages := range []struct {
		name string
		bits int
	}{{"fp32-pages", 0}, {"int8-pages", 8}} {
		pool := kvcache.NewPagePool(shape, 16, 0, pages.bits, false)
		rows = append(rows, row{pages.name, func() kvcache.Cache { return pool.NewCache() }})
	}
	for _, name := range compress.Names() {
		method := compress.MustGet(name)
		rows = append(rows, row{name, func() kvcache.Cache { return method.NewCache(shape) }})
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			bw := m.NewBatchWorkspace(lanes)
			caches := make([]kvcache.Cache, lanes)
			tokens, positions := make([]int, lanes), make([]int, lanes)
			step := func() {
				results, _ := m.ForwardMixedInto(bw, tokens, positions, caches, nil)
				for lane := range results {
					tokens[lane] = tensor.Argmax(results[lane].Logits)
					positions[lane]++
				}
			}
			refill := func() {
				for lane := range caches {
					if c, ok := caches[lane].(*kvcache.PagedKV); ok {
						c.Release(0)
					}
					caches[lane], positions[lane] = r.newCache(), 0
				}
				for i := 0; i < prompt; i++ {
					for lane := range tokens {
						tokens[lane] = (lane*131 + i*17) % cfg.Vocab
					}
					step()
				}
				for _, c := range caches {
					if pf, ok := c.(compress.Prefiller); ok {
						pf.FinishPrefill()
					}
				}
			}
			refill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if positions[0] >= ctxEnd {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				step()
			}
		})
	}
}
