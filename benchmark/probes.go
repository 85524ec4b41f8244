package main

import (
	"runtime"
	"time"
)

// Layer probes: each times one public function of one layer, from outside the
// program, at a shape the workloads actually produce. A probe warms up, then
// times `iters` calls one by one and reports the median, and leaves one span
// in the trace. Caches are filled with AppendFlatN of pseudo-random K/V, not
// by running the model: the kernels' cost does not depend on the values.

const (
	probeWarm = 2
	probePage = 16 // page size in tokens, as every workload uses
)

type prober struct {
	m     *Model
	dims  ModelDims
	tr    *tracer
	r     *rng
	iters int
	out   []Metric
}

// timed runs fn probeWarm+iters times; before runs (untimed) ahead of
// each call. It returns the median call time in ms.
func (p *prober) timed(name string, before, fn func()) float64 {
	start := int64(time.Since(p.tr.t0))
	times := make([]float64, 0, p.iters)
	for i := 0; i < probeWarm+p.iters; i++ {
		if before != nil {
			before()
		}
		t := time.Now()
		fn()
		if d := time.Since(t); i >= probeWarm {
			times = append(times, float64(d)/1e6)
		}
	}
	p.tr.add(name, start, int64(time.Since(p.tr.t0)), 0, -1)
	return median(times)
}

func (p *prober) emit(name string, v float64, unit string) {
	p.out = append(p.out, Metric{Name: name, Value: v, Unit: unit, N: p.iters})
}

func (p *prober) floats(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(p.r.intn(2001)-1000) / 1000
	}
	return out
}

// cache returns a cache of the given codec holding ctx tokens.
func (p *prober) cache(ctx, bits int) *KVCache {
	c := p.m.NewKVCache(probePage, bits)
	for left := ctx; left > 0; {
		n := min(left, 256)
		c.AppendSpan(p.dims.Layers, n, p.floats(n*p.dims.KVDim), p.floats(n*p.dims.KVDim))
		left -= n
	}
	return c
}

func (p *prober) lanes(b, ctx, bits int) []*KVCache {
	out := make([]*KVCache, b)
	for i := range out {
		out[i] = p.cache(ctx, bits)
	}
	return out
}

// mixProbe times the core step at the run's own mean composition.
type mixProbe struct{ lanes, ctx, chunkTokens int }

// runProbes returns the tensor, kvcache, model and core probe metrics.
func runProbes(m *Model, tr *tracer, mix mixProbe, iters int) []Metric {
	p := &prober{m: m, dims: m.Dims(), tr: tr, r: newRNG(7), iters: iters}
	d := p.dims
	workers := runtime.GOMAXPROCS(0)

	// tensor: the FFN up/gate projection at decode (8 rows) and mixed-step
	// (8 lanes + one 32-token chunk = 40 rows) row counts, and the LM head GEMV.
	fill := func(i int) float32 { return float32(i%97)/97 - 0.5 }
	g8 := NewGemm(8, d.Hidden, d.FFN, fill)
	g40 := NewGemm(40, d.Hidden, d.FFN, fill)
	ms8 := p.timed("tensor.gemm.r8", nil, g8.MatTMat)
	p.emit("tensor.gemm_ms.r8.256x1024", ms8, "ms")
	p.emit("tensor.gemm_ms.r40.256x1024", p.timed("tensor.gemm.r40", nil, g40.MatTMat), "ms")
	lm := NewGemm(1, d.Vocab, d.Hidden, fill) // the LM head: vocab rows of hidden columns
	p.emit("tensor.gemv_ms.1024x256", p.timed("tensor.gemv", nil, lm.MatVec), "ms")
	p.emit("tensor.gemm_gflops.r8", ratio(2*8*float64(d.Hidden)*float64(d.FFN)/1e9, ms8/1e3), "GFLOP/s")

	// kvcache: append cost per token per codec (256 tokens as 32-token spans
	// plus 256 one at a time, all layers), and the prefix clone.
	k1, k32 := p.floats(d.KVDim), p.floats(32*d.KVDim)
	for _, codec := range []struct {
		name string
		bits int
	}{{"fp32", 0}, {"int8", 8}, {"int4", 4}} {
		var c *KVCache
		ms := p.timed("kvcache.append."+codec.name, func() { c = p.m.NewKVCache(probePage, codec.bits) }, func() {
			for i := 0; i < 8; i++ {
				c.AppendSpan(d.Layers, 32, k32, k32)
			}
			for i := 0; i < 256; i++ {
				c.AppendSpan(d.Layers, 1, k1, k1)
			}
		})
		p.emit("kvcache.append_us_per_tok."+codec.name, ms*1e3/512, "us")
	}
	base256 := p.cache(256, 0)
	p.emit("kvcache.clone_prefix_us.256tok", 1e3*p.timed("kvcache.clone_prefix", nil, func() { base256.Clone() }), "us")

	// model: ForwardMixedInto at decode, prefill and mixed shapes.
	st := m.NewModelStepper(workers)
	toks := func(n int) []int { return p.r.tokens(n, d.Vocab) }
	decode := func(name string, b, ctx, bits int) float64 {
		lanes, in := p.lanes(b, ctx, bits), toks(b)
		ms := p.timed(name, nil, func() { st.Step(in, lanes, nil) })
		p.emit(name, ms, "ms")
		return ms
	}
	decode("model.decode_ms.b1.ctx128", 1, 128, 0)
	lanes8 := p.lanes(8, 128, 0)
	in8 := toks(8)
	d128 := p.timed("model.decode_ms.b8.ctx128", nil, func() { st.Step(in8, lanes8, nil) })
	p.emit("model.decode_ms.b8.ctx128", d128, "ms")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		st.Step(in8, lanes8, nil)
	}
	runtime.ReadMemStats(&ms1)
	p.emit("model.allocs_per_step.b8", float64(ms1.Mallocs-ms0.Mallocs)/float64(iters), "count")
	d1024 := decode("model.decode_ms.b8.ctx1024", 8, 1024, 0)
	p.emit("model.attn_ms_per_1k_ctx.b8", (d1024-d128)*1024/(1024-128), "ms")
	decode("model.decode_ms.b8.ctx128.int8", 8, 128, 8)

	chunk := toks(32)
	var fresh *KVCache
	prefill := func(name string, base *KVCache) {
		ms := p.timed(name, func() { fresh = base.Clone() }, func() {
			st.Step(nil, nil, []ChunkSpec{{Tokens: chunk, Cache: fresh}})
		})
		p.emit(name, ms, "ms")
	}
	prefill("model.prefill_ms.c32.ctx0", p.cache(0, 0))
	prefill("model.prefill_ms.c32.ctx768", p.cache(768, 0))
	empty := p.cache(0, 0)
	p.emit("model.mixed_ms.b8c32", p.timed("model.mixed_ms.b8c32", func() { fresh = empty.Clone() }, func() {
		st.Step(in8, lanes8, []ChunkSpec{{Tokens: chunk, Cache: fresh}})
	}), "ms")

	// Computed from the shape, not measured: multiply-accumulates ×2 per
	// token through every weight matrix and the LM head; fp32 weight bytes
	// (the engine also keeps a transposed copy of each projection).
	proj := float64(d.Layers) * float64(2*d.Hidden*d.Hidden+2*d.Hidden*d.KVDim+3*d.Hidden*d.FFN)
	embed := float64(d.Vocab * d.Hidden)
	p.emit("model.flops_per_tok", 2*(proj+embed), "count")
	p.emit("model.weight_bytes", 4*(proj+embed), "B")

	// core: the scheduler's step entry point at the same shapes.
	cs := m.NewCoreStepper(p.lanes(8, 128, 0))
	c128 := p.timed("core.step_ms.b8.ctx128", nil, func() { cs.Step(nil) })
	p.emit("core.step_ms.b8.ctx128", c128, "ms")
	p.emit("core.self_ms.b8", c128-d128, "ms")
	p.emit("core.step_ms.b8c32", p.timed("core.step_ms.b8c32", func() { fresh = empty.Clone() }, func() {
		cs.Step([]ChunkSpec{{Tokens: chunk, Cache: fresh}})
	}), "ms")

	// The same entry point at this run's own mean step composition, so that
	// the scheduler's share of a step can be estimated (see layers.go).
	mixStep := m.NewCoreStepper(p.lanes(mix.lanes, mix.ctx, 0))
	var mixChunk []ChunkSpec
	mixToks := toks(max(mix.chunkTokens, 1))
	p.emit("core.step_ms.runmix", p.timed("core.step_ms.runmix", func() {
		mixChunk = nil
		if mix.chunkTokens > 0 {
			mixChunk = []ChunkSpec{{Tokens: mixToks[:mix.chunkTokens], Cache: empty.Clone()}}
		}
	}, func() { mixStep.Step(mixChunk) }), "ms")
	return p.out
}
