// Package kvcache defines the KV cache abstraction shared by the tiny
// transformer (internal/model) and the compression methods (internal/quant,
// internal/sparse), the serving engine's paged cache (PagedKV, its pages drawn
// from a PagePool) and the full-precision reference cache (Full, fp32 pages of
// a private pool), both read page by page through the Paged seam.
//
// Layout: every page holds one layer's K then V, head-major — one head's
// token rows HeadDim apart, one run per head (qpage.go) — and a page that
// fills seals its keys into the attention kernels' panels. Seq returns one
// head's retained rows in that same form, token rows HeadDim apart, so the
// model reads a cache that is not Paged through the one page walk as a
// single page per head. Rotary position embeddings are applied to keys
// *before* caching, matching the layout used by LLaMA-family inference
// engines. Eviction-based caches may retain different token subsets per head,
// so all read paths are addressed by (layer, head).
package kvcache

import (
	"fmt"

	"rethinkkv/internal/tensor"
)

// Shape describes the dimensions a cache must hold.
type Shape struct {
	Layers  int // number of transformer layers
	KVHeads int // number of key/value heads per layer
	HeadDim int // per-head embedding dimension
}

// Validate returns an error if any dimension is non-positive.
func (s Shape) Validate() error {
	if s.Layers <= 0 || s.KVHeads <= 0 || s.HeadDim <= 0 {
		return fmt.Errorf("kvcache: invalid shape %+v", s)
	}
	return nil
}

// CheckSpan panics unless layer is one of the shape's layers and k and v each
// hold n >= 0 whole tokens: the precondition of every AppendFlatN, checked
// before anything is stored.
func (s Shape) CheckSpan(layer, n int, k, v []float32) {
	if layer < 0 || layer >= s.Layers {
		panic(fmt.Sprintf("kvcache: layer %d out of range [0, %d)", layer, s.Layers))
	}
	if n < 0 || len(k) != n*s.KVHeads*s.HeadDim || len(v) != len(k) {
		panic(fmt.Sprintf("kvcache: span of %d tokens with %d key and %d value floats for %d heads of %d", n, len(k), len(v), s.KVHeads, s.HeadDim))
	}
}

// BytesPerElemFP16 is the storage cost of one cache element in the FP16
// baseline; memory accounting throughout the repository is in FP16-equivalent
// bytes so that compression ratios match the paper's reporting.
const BytesPerElemFP16 = 2

// Cache is the interface the model's attention layers read and write.
//
// AppendFlatN, the one append, stores the (RoPE'd) keys and values of a
// layer's next n tokens: k and v each hold n whole-token head-major vectors
// back to back (token t, head h at offset t*KVHeads*HeadDim + h*HeadDim).
// Every implementation runs Shape.CheckSpan before storing anything, and
// stores what n one-token calls over the same tokens would, so a decode step
// (n = 1) and a prefill chunk of any size leave the same cache.
// Implementations MUST copy the vectors rather than retain the slices: the
// model passes reused scratch buffers that are overwritten on the next step.
// There is no cross-session form: every stream owns a distinct cache.
//
// Seq returns the retained entries for one head in storage order, flat: the
// i-th entry's key is keys[i*HeadDim : (i+1)*HeadDim], its value likewise in
// values — the layout of an open fp32 page. Compressed caches return
// dequantised or pruned rows here, which is what makes the accuracy effects
// of compression real rather than modelled. Positions returns the absolute
// position of each retained entry, aligned with Seq and ascending. The slices
// Seq and Positions return may alias the cache's storage — the offline
// caches return theirs in place, PagedKV gathers fresh ones — stay valid
// until the next AppendFlatN, and must not be written.
type Cache interface {
	Shape() Shape
	AppendFlatN(layer, n int, k, v []float32)
	Seq(layer, head int) (keys, values []float32)
	Positions(layer, head int) []int
	// Len reports the number of retained entries for one head.
	Len(layer, head int) int
	// TotalAppended reports how many tokens have ever been appended
	// (identical across heads and layers).
	TotalAppended() int
	// MemoryBytes reports current resident size in FP16-equivalent bytes.
	MemoryBytes() int64
}

// AttentionObserver is implemented by caches whose eviction policy consumes
// attention scores (e.g. H2O). After computing attention for a step, the
// model forwards the weights (aligned with the entries Seq returns).
// Observers must not retain the weights slice: it is a reused scratch buffer.
// A prefill chunk into an observing cache is computed in full: every row's
// attention runs, and is shown, in every layer, where an unobserved chunk's
// rows whose output nobody reads skip the last layer's attention.
type AttentionObserver interface {
	ObserveAttention(layer, head int, weights []float32)
}

// Paged is how the model's attention walks a cache that retains every
// appended token at a regular layout: the cache is a list of pages per layer,
// each yielding one KV head's key or value rows as the attention block
// kernels read them (tensor.Rows: fp32 rows in place, or uniform codes the
// kernel dequantizes). PagedKV implements it over its page table whatever the
// page codec, and Full is a PagedKV of fp32 pages. Caches whose append
// carries policy (eviction scoring, offline quantisation) do not implement
// it: the same walk reads each of their KV heads' Seq as one fp32 page. A
// Paged cache's page boundaries, like its bytes, do not depend on how its
// tokens were split into AppendFlatN calls.
//
// LayerPages reports how many pages one layer holds right now. Inside a
// forward pass layer l has appended the step's tokens and layer l+1 has not,
// so the count is per layer. Rows returns page p's key rows (value rows when
// vals) for one head and the page's token count, for p < LayerPages(layer);
// the rows alias cache-owned storage, are valid until the next append, and
// hold finite values only.
// KeySummary returns page p's per-channel key min/max (summary.go's layout),
// nil when the cache keeps none.
type Paged interface {
	Cache
	LayerPages(layer int) int
	Rows(layer, page, head int, vals bool) (rows tensor.Rows, tokens int)
	KeySummary(layer, page int) []float32
}

var (
	_ Paged = (*Full)(nil)
	_ Paged = (*PagedKV)(nil)
)

// Full is the uncompressed FP16-baseline cache: every appended token is
// retained in full precision for every head, in fp32 pages of
// tensor.SealTokens tokens from a private, unbudgeted pool, so its full pages
// seal and attention reads it through the one page walk. Its one rule of its
// own is the charge: MemoryBytes counts exactly the tokens appended, not the
// pages that hold them.
type Full struct{ *PagedKV }

// NewFull allocates an empty full-precision cache. It panics on an invalid
// shape.
func NewFull(shape Shape) *Full { return &Full{NewPagedKV(shape, tensor.SealTokens)} }

// MemoryBytes reports the FP16 footprint of the tokens appended — the
// baseline every compression ratio divides, token-exact where PagedKV charges
// whole pages.
func (c *Full) MemoryBytes() int64 { return FP16Bytes(c.Shape(), c.TotalAppended()) }

// FP16Bytes returns the FP16 footprint of a cache holding tokens tokens for
// the given shape — the baseline against which compression ratios are
// computed.
func FP16Bytes(shape Shape, tokens int) int64 {
	return int64(tokens) * int64(shape.Layers) * int64(shape.KVHeads) * int64(shape.HeadDim) * 2 * BytesPerElemFP16
}
