// Package model implements a real, tiny, pure-Go LLaMA-style transformer
// (RMSNorm, RoPE, grouped-query attention, SiLU-gated FFN) that runs genuine
// prefill and decode over a pluggable KV cache, plus shape descriptors for
// the full-size models the paper benchmarks (LLaMA-2-7B/13B/70B, Mistral-7B,
// LLaMA-3.1-8B).
//
// The tiny model is the accuracy substrate: compression methods quantise and
// evict its real tensors, so their error is genuine. The full-size
// descriptors feed the analytical cost model in internal/perf, which
// reproduces the paper's throughput results.
package model

import "fmt"

// Config describes a transformer's shape.
type Config struct {
	Name    string
	Layers  int
	Heads   int // query heads
	KVHeads int // key/value heads (== Heads unless GQA)
	HeadDim int
	FFNDim  int
	Vocab   int
	MaxSeq  int
}

// Hidden returns the model (embedding) dimension.
func (c Config) Hidden() int { return c.Heads * c.HeadDim }

// KVDim returns the per-layer key (or value) width.
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim }

// GroupSize returns the number of query heads sharing one KV head.
func (c Config) GroupSize() int { return c.Heads / c.KVHeads }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Heads <= 0 || c.KVHeads <= 0 || c.HeadDim <= 0:
		return fmt.Errorf("model: non-positive dimension in %+v", c)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model: heads %d not divisible by kv heads %d", c.Heads, c.KVHeads)
	case c.HeadDim%2 != 0:
		return fmt.Errorf("model: head dim %d must be even for RoPE", c.HeadDim)
	case c.FFNDim <= 0 || c.Vocab <= 0 || c.MaxSeq <= 0:
		return fmt.Errorf("model: non-positive ffn/vocab/maxseq in %+v", c)
	}
	return nil
}

// ParamCount returns the approximate parameter count (embeddings + blocks),
// used by the cost model to size weight traffic.
func (c Config) ParamCount() int64 {
	h := int64(c.Hidden())
	kv := int64(c.KVDim())
	ffn := int64(c.FFNDim)
	perLayer := h*h + 2*h*kv + h*h + // Wq, Wk, Wv, Wo (Wk/Wv are h×kv)
		3*h*ffn + // gate, up, down
		2*h // norms
	return int64(c.Layers)*perLayer + 2*int64(c.Vocab)*h // embed + lm head
}

// Tiny returns the runnable test model: small enough for pure-Go execution,
// large enough that quantisation and eviction have measurable effects.
func Tiny() Config {
	return Config{
		Name: "tiny-llama", Layers: 4, Heads: 4, KVHeads: 2, HeadDim: 16,
		FFNDim: 128, Vocab: 512, MaxSeq: 4096,
	}
}

// TinyMHA is Tiny without grouped-query attention, for tests that need
// one KV head per query head.
func TinyMHA() Config {
	c := Tiny()
	c.Name = "tiny-llama-mha"
	c.KVHeads = c.Heads
	return c
}

// Small returns a serving-shaped runnable model: wide enough (256 hidden,
// 1024 FFN) that per-layer weight GEMMs dominate a decode step the way
// they do on real models, which is the regime the fused batched decode
// plane targets and the batched throughput benchmarks measure. Tiny stays
// the accuracy substrate; Small is the performance substrate.
func Small() Config {
	return Config{
		Name: "small-llama", Layers: 4, Heads: 8, KVHeads: 4, HeadDim: 32,
		FFNDim: 1024, Vocab: 1024, MaxSeq: 4096,
	}
}

// Full-size shape descriptors. Only their shapes are used (by the cost
// model); they are never instantiated as weight tensors.
var (
	// LLaMA2_7B matches meta-llama/Llama-2-7b.
	LLaMA2_7B = Config{Name: "llama-2-7b", Layers: 32, Heads: 32, KVHeads: 32, HeadDim: 128, FFNDim: 11008, Vocab: 32000, MaxSeq: 4096}
	// LLaMA2_13B matches meta-llama/Llama-2-13b.
	LLaMA2_13B = Config{Name: "llama-2-13b", Layers: 40, Heads: 40, KVHeads: 40, HeadDim: 128, FFNDim: 13824, Vocab: 32000, MaxSeq: 4096}
	// LLaMA2_70B matches meta-llama/Llama-2-70b (GQA, 8 KV heads).
	LLaMA2_70B = Config{Name: "llama-2-70b", Layers: 80, Heads: 64, KVHeads: 8, HeadDim: 128, FFNDim: 28672, Vocab: 32000, MaxSeq: 4096}
	// Mistral7B matches mistralai/Mistral-7B-v0.1 (GQA, 8 KV heads).
	Mistral7B = Config{Name: "mistral-7b", Layers: 32, Heads: 32, KVHeads: 8, HeadDim: 128, FFNDim: 14336, Vocab: 32000, MaxSeq: 32768}
	// LLaMA31_8B matches meta-llama/Llama-3.1-8B (GQA, 8 KV heads).
	LLaMA31_8B = Config{Name: "llama-3.1-8b", Layers: 32, Heads: 32, KVHeads: 8, HeadDim: 128, FFNDim: 14336, Vocab: 128256, MaxSeq: 131072}
)

// All returns every named shape descriptor, full-size then runnable — the
// resolution set of ByName.
func All() []Config {
	return []Config{LLaMA2_7B, LLaMA2_13B, LLaMA2_70B, Mistral7B, LLaMA31_8B, Tiny(), TinyMHA(), Small()}
}

// ByName returns a shape descriptor by its Name field.
func ByName(name string) (Config, bool) {
	for _, c := range All() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}
