// Package perf is the analytical performance model that reproduces the
// paper's throughput results. It prices prefill and decode latency for a
// (hardware, model, engine, compression method, tensor-parallel degree)
// combination from first principles:
//
//   - GEMMs and attention follow the roofline (max of memory and compute
//     time) at engine-specific achieved efficiencies;
//   - decode is dominated by weight and KV cache reads (memory-bound);
//     prefill by GEMM FLOPs (compute-bound);
//   - compression methods change the bytes the attention kernel moves
//     (less for all methods), and add method-specific overheads: dequant
//     compute and dual-pool irregularity for quantisation, error-correction
//     kernel storms for GEAR, score re-materialisation passes and
//     non-TP-scaling eviction kernels for H2O, window bookkeeping for
//     StreamingLLM;
//   - tensor parallelism divides weight/KV traffic per GPU but adds ring
//     all-reduces, and relieves the bandwidth pressure that made
//     compression profitable — the mechanism behind the paper's Table 3.
package perf

import (
	"fmt"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/stats"
)

// Estimator prices serving operations for one configuration.
type Estimator struct {
	HW     gpu.Hardware
	Model  model.Config
	Engine engine.Profile
	Method compress.Method
	TP     int
}

// New builds an estimator, validating the configuration.
func New(hw gpu.Hardware, m model.Config, eng engine.Profile, method compress.Method, tp int) (*Estimator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := eng.Validate(); err != nil {
		return nil, err
	}
	if tp < 1 || m.Heads%tp != 0 {
		return nil, fmt.Errorf("perf: tensor parallelism %d must divide %d heads", tp, m.Heads)
	}
	return &Estimator{HW: hw, Model: m, Engine: eng, Method: method, TP: tp}, nil
}

// MustNew is New that panics, for experiment tables.
func MustNew(hw gpu.Hardware, m model.Config, eng engine.Profile, method compress.Method, tp int) *Estimator {
	e, err := New(hw, m, eng, method, tp)
	if err != nil {
		panic(err)
	}
	return e
}

const (
	fp16 = 2.0
	fp32 = 4.0
	// dequantFLOPsPerElem is the multiply-add cost of Eqn. 3's
	// de-quantisation per element.
	dequantFLOPsPerElem = 2.0
	// quantizeFLOPsPerElem covers min/max reduction plus round/scale.
	quantizeFLOPsPerElem = 4.0
	// gearKernelsPerGroup is the launch count of GEAR's per-group error
	// correction (quantise, outlier extract, low-rank iteration) — the
	// small-kernel storm that erodes its prefill throughput.
	gearKernelsPerGroup = 3.0
	// evictChunk is the token interval at which streaming eviction
	// bookkeeping runs during prefill.
	evictChunk = 128.0
)

// weights returns per-GPU weight bytes.
func (e *Estimator) weightBytes() float64 {
	return float64(e.Model.ParamCount()) * fp16 / float64(e.TP)
}

// kvReadBytes returns the per-step KV bytes one decode step reads for a
// batch, at nominal KV length kvLen, per GPU.
func (e *Estimator) kvReadBytes(batch, kvLen int) float64 {
	avg := e.Method.Cost.KVBytesPerTokenAvg(e.Model.Layers, e.Model.KVDim(), kvLen)
	return float64(batch) * avg * float64(kvLen) / float64(e.TP)
}

// attnBandwidthEff returns the achieved bandwidth fraction for attention
// reads under this method's access pattern.
func (e *Estimator) attnBandwidthEff() float64 {
	return e.Engine.BandwidthEff * e.Method.Cost.IrregularAccess
}

// DecodeStepLatency returns the wall time of one decode step for the batch
// at the given KV length, in seconds.
func (e *Estimator) DecodeStepLatency(batch, kvLen int) float64 {
	cfg := e.Model
	tp := float64(e.TP)
	b := float64(batch)

	// Linear layers: weights streamed once, FLOPs scale with batch.
	linFLOPs := 2 * float64(cfg.ParamCount()) * b / tp
	tLinear := e.HW.OpTime(linFLOPs, e.weightBytes(), e.Engine.BandwidthEff, e.Engine.ComputeEff)

	// Attention: KV reads plus score/value FLOPs.
	tAttn := e.decodeAttentionTime(batch, kvLen)

	// Kernel launches and framework overhead.
	launches := float64(e.Engine.KernelsPerLayerDecode+e.methodExtraKernelsDecode()) * float64(cfg.Layers)
	tLaunch := launches * e.HW.KernelLaunch
	tHost := e.Engine.StepOverhead

	// Tensor-parallel all-reduces: two per layer on b×hidden activations.
	arBytes := b * float64(cfg.Hidden()) * fp16
	tAR := 2 * float64(cfg.Layers) * e.HW.AllReduceTime(arBytes, e.TP)

	// Non-TP-scaling eviction overhead: score-based eviction runs a small
	// serialized kernel per layer whose work does not shrink with TP, and
	// the fluctuating lengths force a cross-GPU sync per layer.
	tEvict := e.evictionOverheadDecode(batch)

	return tLinear + tAttn + tLaunch + tHost + tAR + tEvict
}

// decodeAttentionTime prices the attention operation of one decode step
// (all layers), per GPU — the quantity Figure 3(b) plots cumulatively.
func (e *Estimator) decodeAttentionTime(batch, kvLen int) float64 {
	cfg := e.Model
	tp := float64(e.TP)
	b := float64(batch)
	cost := e.Method.Cost
	effLen := float64(cost.EffectiveKVLen(kvLen))

	bytes := e.kvReadBytes(batch, kvLen)
	// 4·L·hidden FLOPs per layer (q·Kᵀ plus the weighted V sum).
	flops := 4 * b * effLen * float64(cfg.Hidden()) * float64(cfg.Layers) / tp

	if !e.Engine.Paged {
		// Contiguous-cache engines (transformers) concatenate the new KV
		// onto the past cache every step: the whole retained cache is read
		// and rewritten. This copy, not arithmetic, is why TRL-measured
		// speedups overstate what production engines see (Observation 1).
		bytes += 2 * e.kvReadBytes(batch, kvLen)
	}

	if !e.Engine.FlashAttention {
		// Naive multi-pass: the fp32 score matrix is written, re-read by
		// softmax, and re-read by the AV pass.
		scoreBytes := 3 * b * float64(cfg.Heads) / tp * effLen * fp32 * float64(cfg.Layers)
		bytes += scoreBytes
	}

	computeEff := e.Engine.ComputeEff
	if cost.Kind == compress.Quant {
		// De-quantisation of every element read, at the engine's quant
		// kernel efficiency.
		elems := b * effLen * float64(cfg.KVDim()) * 2 * float64(cfg.Layers) / tp
		flops += elems * dequantFLOPsPerElem / e.Engine.QuantKernelEff
		if cost.ErrorCorrection {
			// GEAR reconstructs outliers + low-rank on read.
			flops += elems * dequantFLOPsPerElem / e.Engine.QuantKernelEff
		}
	}
	if cost.NeedsScores && e.Engine.FlashAttention {
		// A one-pass online-softmax kernel never materialises scores, so
		// an H2O-style policy pays one more pass over K: n·d elements
		// read and 2·n·d FLOPs per head to recompute q·Kᵀ.
		bytes += b * effLen * float64(cfg.KVDim()) * fp16 * float64(cfg.Layers) / tp
		flops += 2 * b * effLen * float64(cfg.Hidden()) * float64(cfg.Layers) / tp
	}
	return e.HW.OpTime(flops, bytes, e.attnBandwidthEff(), computeEff)
}

// methodExtraKernelsDecode returns added kernel launches per layer per step.
func (e *Estimator) methodExtraKernelsDecode() int {
	cost := e.Method.Cost
	switch {
	case cost.Kind == compress.Quant && cost.ErrorCorrection:
		return 4 // dequant + outlier scatter + low-rank GEMM + quantise-new
	case cost.Kind == compress.Quant:
		return 2 // dequant + dual-pool append
	case cost.Kind == compress.Sparse && cost.NeedsScores:
		return 3 // score recompute + accumulate + evict
	case cost.Kind == compress.Sparse:
		return 1 // window bookkeeping
	}
	return 0
}

// evictionOverheadDecode prices the per-step eviction work that does not
// scale with tensor parallelism.
func (e *Estimator) evictionOverheadDecode(batch int) float64 {
	cost := e.Method.Cost
	if cost.Kind != compress.Sparse || !cost.NeedsScores {
		return 0
	}
	// Serialized score-update + arg-min scan per layer, plus a cross-GPU
	// barrier per layer when TP > 1 (fluctuating retained lengths must
	// agree before the next layer's paged read).
	scanBytes := float64(batch) * float64(cost.Budget) * float64(e.Model.KVHeads) * fp32 * float64(e.Model.Layers)
	tScan := scanBytes / (e.HW.MemBandwidth * 0.2) // strided small-kernel traffic
	var tSync float64
	if e.TP > 1 {
		tSync = float64(e.Model.Layers) * e.HW.InterconnectLatency * float64(e.TP-1)
	}
	return tScan + tSync
}

// DecodeThroughput returns decode tokens/second for the batch at kvLen.
func (e *Estimator) DecodeThroughput(batch, kvLen int) float64 {
	return float64(batch) / e.DecodeStepLatency(batch, kvLen)
}

// PrefillLatency returns the wall time to prefill a batch of prompts of the
// given length, in seconds.
func (e *Estimator) PrefillLatency(batch, promptLen int) float64 {
	cfg := e.Model
	tp := float64(e.TP)
	b := float64(batch)
	p := float64(promptLen)

	// Linear layers: compute-bound GEMMs.
	linFLOPs := 2 * float64(cfg.ParamCount()) * b * p / tp
	tLinear := e.HW.OpTime(linFLOPs, e.weightBytes(), e.Engine.BandwidthEff, e.Engine.ComputeEff)

	tAttn := e.prefillAttentionTime(batch, promptLen)

	launches := float64(e.Engine.KernelsPerLayerPrefill) * float64(cfg.Layers)
	tLaunch := launches*e.HW.KernelLaunch + e.Engine.StepOverhead

	arBytes := b * p * float64(cfg.Hidden()) * fp16
	tAR := 2 * float64(cfg.Layers) * e.HW.AllReduceTime(arBytes, e.TP)

	tMethod := e.prefillMethodOverhead(batch, promptLen)

	return tLinear + tAttn + tLaunch + tAR + tMethod
}

// prefillAttentionTime prices causal self-attention over the prompt — the
// quantity Figure 3(a) plots.
func (e *Estimator) prefillAttentionTime(batch, promptLen int) float64 {
	cfg := e.Model
	tp := float64(e.TP)
	b := float64(batch)
	p := float64(promptLen)

	// Causal attention: ~2·P²·hidden FLOPs per layer (QKᵀ + AV, halved by
	// causality).
	flops := 2 * b * p * p * float64(cfg.Hidden()) * float64(cfg.Layers) / tp
	// Flash streams K/V tiles; traffic ≈ KV read once per Q-tile row.
	bytes := b * p * float64(cfg.KVDim()) * 2 * fp16 * float64(cfg.Layers) / tp
	if !e.Engine.FlashAttention {
		// Naive: materialise the P×P fp32 score matrix (write + 2 reads).
		bytes += 3 * b * float64(cfg.Heads) / tp * p * p * fp32 * float64(cfg.Layers)
	}
	t := e.HW.OpTime(flops, bytes, e.attnBandwidthEff(), e.Engine.ComputeEff)

	if e.Method.Cost.NeedsScores && e.Engine.FlashAttention {
		// H2O/SnapKV must materialise the score matrix anyway: recompute
		// QKᵀ and stream the P×P fp32 scores out and back (accumulate).
		extraBytes := 2 * b * float64(cfg.Heads) / tp * p * p * fp32 * float64(cfg.Layers)
		extraFLOPs := 2 * b * p * p * float64(cfg.Hidden()) * float64(cfg.Layers) / tp
		t += e.HW.OpTime(extraFLOPs, extraBytes, e.attnBandwidthEff(), e.Engine.ComputeEff)
	}
	return t
}

// prefillMethodOverhead prices compression work during prefill.
func (e *Estimator) prefillMethodOverhead(batch, promptLen int) float64 {
	cfg := e.Model
	cost := e.Method.Cost
	tp := float64(e.TP)
	b := float64(batch)
	p := float64(promptLen)
	elems := b * p * float64(cfg.KVDim()) * 2 * float64(cfg.Layers) / tp

	switch cost.Kind {
	case compress.Quant:
		// Quantising the prompt KV, minus the write bytes it saves.
		quantFLOPs := elems * quantizeFLOPsPerElem / e.Engine.QuantKernelEff
		savedBytes := elems * fp16 * (1 - 1/cost.CompressionRatio(cfg.Layers, cfg.KVDim(), promptLen))
		t := e.HW.OpTime(quantFLOPs, 0, 1, e.Engine.ComputeEff) - savedBytes/(e.HW.MemBandwidth*e.Engine.BandwidthEff)
		if cost.ErrorCorrection {
			// GEAR's per-group error-correction kernel storm.
			groups := float64(cfg.Layers) * (p/float64(cost.GroupSize) + 1) * b
			t += groups * gearKernelsPerGroup * e.HW.KernelLaunch
			// Low-rank power iterations: ~8 iterations × 2 GEMV per elem.
			t += e.HW.OpTime(elems*32/e.Engine.QuantKernelEff, 0, 1, e.Engine.ComputeEff)
		}
		return t
	case compress.Sparse:
		evictions := p - float64(cost.EffectiveKVLen(promptLen))
		if evictions <= 0 {
			return 0
		}
		// Chunked eviction bookkeeping launches plus compaction traffic,
		// minus saved KV writes. Score-based policies run a top-k
		// selection per head per chunk — a small-kernel storm that is the
		// dominant H2O prefill cost.
		launches := float64(cfg.Layers) * (p / evictChunk) * b
		if cost.NeedsScores {
			launches *= float64(cfg.KVHeads)
		}
		t := launches * e.HW.KernelLaunch
		compactBytes := b * evictions * float64(cfg.KVDim()) * 2 * fp16 * float64(cfg.Layers) / tp
		t += compactBytes / (e.HW.MemBandwidth * e.attnBandwidthEff())
		savedWrite := compactBytes // evicted tokens' KV never rewritten downstream
		t -= savedWrite / (e.HW.MemBandwidth * e.Engine.BandwidthEff)
		if t < 0 {
			t = 0
		}
		return t
	}
	return 0
}

// PrefillThroughput returns prompt tokens/second processed.
func (e *Estimator) PrefillThroughput(batch, promptLen int) float64 {
	return float64(batch) * float64(promptLen) / e.PrefillLatency(batch, promptLen)
}

// AttentionPrefillTime returns the prefill attention-layer time (Figure 3a),
// including any method-forced score materialisation.
func (e *Estimator) AttentionPrefillTime(batch, promptLen int) float64 {
	return e.prefillAttentionTime(batch, promptLen) + e.prefillMethodOverhead(batch, promptLen)
}

// AttentionDecodeTimeCumulative returns total attention time to decode
// steps tokens starting from kvStart cached tokens (Figure 3b).
func (e *Estimator) AttentionDecodeTimeCumulative(batch, kvStart, steps int) float64 {
	var total float64
	for i := 0; i < steps; i++ {
		total += e.decodeAttentionTime(batch, kvStart+i)
	}
	return total
}

// EndToEndLatency returns prefill plus decode time for one request shape.
func (e *Estimator) EndToEndLatency(batch, promptLen, outputLen int) float64 {
	t := e.PrefillLatency(batch, promptLen)
	for i := 0; i < outputLen; i++ {
		t += e.DecodeStepLatency(batch, promptLen+i)
	}
	return t
}

// MemoryRequired returns the per-GPU bytes needed to hold weights, the KV
// cache, activations, and method workspace for a batch at kvLen.
func (e *Estimator) MemoryRequired(batch, kvLen int) int64 {
	cfg := e.Model
	tp := float64(e.TP)
	b := float64(batch)

	weights := e.weightBytes()
	cache := e.kvReadBytes(batch, kvLen) // resident == read per step
	activations := b * float64(cfg.Hidden()) * 8 * fp16 / tp

	var workspace float64
	if e.Method.Cost.Kind == compress.Quant {
		// Implementation reality (Appendix A.3 codebases): de-quantisation
		// materialises fp32 K/V work buffers for the active sequences, and
		// the dual-pool layout reserves a full-precision residual pool.
		effLen := float64(kvLen)
		workspace = b * effLen * float64(cfg.KVDim()) * 2 * fp32 * 2 / tp
		workspace += cache // pool reservation headroom
	}
	if !e.Engine.Paged {
		// Contiguous allocators reserve to the model max length.
		maxLen := float64(cfg.MaxSeq)
		if maxLen > float64(kvLen)*2 {
			maxLen = float64(kvLen) * 2
		}
		cache = cache * maxLen / float64(stats.MaxI(kvLen, 1))
	}
	return int64(weights + cache + activations + workspace)
}

// Fits reports whether the configuration fits in 90% of device memory
// (the usable fraction after allocator reserve).
func (e *Estimator) Fits(batch, kvLen int) bool {
	return float64(e.MemoryRequired(batch, kvLen)) <= 0.9*float64(e.HW.VRAM)
}
