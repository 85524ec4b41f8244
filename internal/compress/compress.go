// Package compress binds the quantisation and sparsity implementations into
// the ten named method configurations the program's experiments, examples
// and commands use (FP16, KIVI-2/4, GEAR-2/4, H2O-256/512, Stream-256/512,
// SnapKV-512), each pairing a cache factory (the real algorithm, at the
// scale of the tiny model the program runs) with a cost profile (the
// analytical characteristics the performance model charges for the
// full-scale method). A method no caller outside this package names is not
// registered (TestEveryMethodHasACaller). It is the one method → cache map:
// Pipeline, the accuracy evaluator and the length experiments all build
// their caches through Method.NewCache.
package compress

import (
	"fmt"
	"sort"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/quant"
	"rethinkkv/internal/sparse"
)

// Kind classifies a method.
type Kind int

const (
	// FP16 is the uncompressed baseline.
	FP16 Kind = iota
	// Quant marks quantisation-based methods.
	Quant
	// Sparse marks sparsity-based (eviction) methods.
	Sparse
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FP16:
		return "fp16"
	case Quant:
		return "quant"
	case Sparse:
		return "sparse"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// CostProfile captures the method characteristics the analytical cost model
// (internal/perf) charges. All values derive from the algorithm's structure,
// not from fitted constants.
type CostProfile struct {
	Kind      Kind
	Bits      int // quant bit width (0 for non-quant)
	GroupSize int // quant group size
	Residual  int // quant full-precision residual window (tokens)
	Budget    int // sparse retained-token budget (0 for non-sparse)
	// NeedsScores: the policy consumes attention scores, forcing a
	// FlashAttention engine to re-materialise them (extra passes).
	NeedsScores bool
	// ErrorCorrection: GEAR-style outlier + low-rank reconstruction adds
	// compute on both compression and read paths.
	ErrorCorrection bool
	// IrregularAccess: finer-granularity layouts (per-channel groups,
	// dual-pool pages) reduce achievable bandwidth utilisation on GPU-like
	// hardware. Expressed as a multiplier <= 1 on effective bandwidth.
	IrregularAccess float64
}

// EffectiveKVLen returns how many tokens the attention kernel actually reads
// at a nominal sequence length.
func (p CostProfile) EffectiveKVLen(seqLen int) int {
	if p.Kind == Sparse && p.Budget > 0 && seqLen > p.Budget {
		return p.Budget
	}
	return seqLen
}

// KVBytesPerTokenAvg returns the average resident bytes per token for a
// sequence of the given length, for a model with kvDim = KVHeads*HeadDim per
// layer across layers layers. FP16 elements are 2 bytes.
func (p CostProfile) KVBytesPerTokenAvg(layers, kvDim, seqLen int) float64 {
	if seqLen <= 0 {
		return 0
	}
	elemsPerToken := float64(layers) * float64(kvDim) * 2 // K and V
	full := elemsPerToken * 2                             // FP16 bytes
	switch p.Kind {
	case FP16:
		return full
	case Quant:
		resident := seqLen
		resTokens := p.Residual
		if resTokens > resident {
			resTokens = resident
		}
		quantTokens := resident - resTokens
		// Codes plus affine parameters amortised over the group.
		bitsPerElem := float64(p.Bits) + 32.0/float64(p.GroupSize)
		if p.ErrorCorrection {
			// GEAR: 2% outliers at 32 bits + rank ≈ 2% low-rank factors.
			bitsPerElem += 0.02*32 + 0.02*2*16
		}
		quantBytes := float64(quantTokens) * elemsPerToken * bitsPerElem / 8
		fullBytes := float64(resTokens) * full
		return (quantBytes + fullBytes) / float64(seqLen)
	case Sparse:
		eff := p.EffectiveKVLen(seqLen)
		bytes := float64(eff) * full
		if p.NeedsScores {
			bytes += float64(eff) * float64(layers) * 2 // score metadata
		}
		return bytes / float64(seqLen)
	}
	return full
}

// CompressionRatio returns FP16 bytes over compressed bytes at the given
// sequence length.
func (p CostProfile) CompressionRatio(layers, kvDim, seqLen int) float64 {
	full := float64(layers) * float64(kvDim) * 2 * 2
	avg := p.KVBytesPerTokenAvg(layers, kvDim, seqLen)
	if avg == 0 {
		return 1
	}
	return full / avg
}

// Method is a named compression configuration: a real cache implementation
// plus the cost profile the throughput model charges for it. The two are at
// different scales on purpose. Cost describes the method as the paper
// configures it for a 7B–70B model (budgets of 256 / 512 tokens, 128-token
// residual windows, 32-element groups): that is what internal/perf prices.
// NewCache builds the cache the program runs, and the only model it runs is
// the tiny one, on tiny prompts — so every window counted in tokens shrinks
// by tinyScale, keeping the *fraction* of the context that is evicted or
// quantised what it is at full scale.
type Method struct {
	Name  string
	Alias string // short label used in the paper's figures (K-4, G-4, ...)
	Cost  CostProfile
	// NewCache builds the method's tiny-scale cache for a model shape.
	NewCache func(shape kvcache.Shape) kvcache.Cache
}

// tinyScale divides every token-counted window (eviction budget, residual
// window) between a method's full-scale Cost and the cache NewCache builds.
// Where a quantiser's tiny-scale setting departs from the paper's in anything
// else, its registration overrides that field of the paper's default by name.
const tinyScale = 4

// registry holds all named methods.
var registry = map[string]Method{}

func register(m Method) {
	if _, dup := registry[m.Name]; dup {
		panic("compress: duplicate method " + m.Name)
	}
	registry[m.Name] = m
}

func init() {
	register(Method{
		Name: "fp16", Alias: "FP16",
		Cost: CostProfile{Kind: FP16, IrregularAccess: 1},
		NewCache: func(s kvcache.Shape) kvcache.Cache {
			return kvcache.NewFull(s)
		},
	})
	for _, bits := range []int{2, 4} {
		bits := bits
		register(Method{
			Name: fmt.Sprintf("kivi-%d", bits), Alias: fmt.Sprintf("K-%d", bits),
			Cost: CostProfile{
				Kind: Quant, Bits: bits, GroupSize: 32, Residual: 128,
				IrregularAccess: 0.85, // per-channel groups + dual-pool layout
			},
			NewCache: func(s kvcache.Shape) kvcache.Cache {
				cfg := quant.DefaultKIVI(bits)
				cfg.GroupSize, cfg.Residual = 16, cfg.Residual/tinyScale
				return quant.NewKIVI(s, cfg)
			},
		})
		register(Method{
			Name: fmt.Sprintf("gear-%d", bits), Alias: fmt.Sprintf("G-%d", bits),
			Cost: CostProfile{
				Kind: Quant, Bits: bits, GroupSize: 32, Residual: 128,
				ErrorCorrection: true,
				IrregularAccess: 0.75, // sparse outlier scatter + low-rank GEMM
			},
			NewCache: func(s kvcache.Shape) kvcache.Cache {
				cfg := quant.DefaultGEAR(bits)
				cfg.GroupSize, cfg.RankFrac, cfg.PowerIters = 16, 0.05, 6
				return quant.NewGEAR(s, cfg)
			},
		})
	}
	for _, budget := range []int{256, 512} {
		budget := budget
		register(Method{
			Name: fmt.Sprintf("h2o-%d", budget), Alias: "H2O",
			Cost: CostProfile{
				Kind: Sparse, Budget: budget, NeedsScores: true,
				IrregularAccess: 0.9, // fluctuating lengths fight paging
			},
			NewCache: func(s kvcache.Shape) kvcache.Cache {
				return sparse.NewCache(s, sparse.DefaultH2O(budget/tinyScale))
			},
		})
		register(Method{
			Name: fmt.Sprintf("stream-%d", budget), Alias: "Stream",
			Cost: CostProfile{
				Kind: Sparse, Budget: budget,
				IrregularAccess: 1, // sink+window is a regular layout
			},
			NewCache: func(s kvcache.Shape) kvcache.Cache {
				return sparse.NewCache(s, sparse.DefaultStreaming(budget/tinyScale))
			},
		})
	}
	register(Method{
		Name: "snapkv-512", Alias: "SnapKV",
		Cost: CostProfile{
			Kind: Sparse, Budget: 512, NeedsScores: true,
			IrregularAccess: 0.95,
		},
		NewCache: func(s kvcache.Shape) kvcache.Cache {
			return sparse.NewCache(s, sparse.DefaultSnapKV(512/tinyScale))
		},
	})
}

// Get returns a registered method by name.
func Get(name string) (Method, error) {
	m, ok := registry[name]
	if !ok {
		return Method{}, fmt.Errorf("compress: unknown method %q", name)
	}
	return m, nil
}

// MustGet is Get that panics on unknown names; for use in experiment tables.
func MustGet(name string) Method {
	m, err := Get(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names returns all registered method names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperSet returns the four methods (plus baseline) the paper's main
// evaluation uses: FP16, KIVI-4, GEAR-4, H2O-512, Stream-512.
func PaperSet() []Method {
	return []Method{
		MustGet("fp16"), MustGet("kivi-4"), MustGet("gear-4"),
		MustGet("h2o-512"), MustGet("stream-512"),
	}
}

// Prefiller is implemented by caches that need a prefill-end signal
// (SnapKV's one-shot prompt compression).
type Prefiller interface {
	FinishPrefill()
}
