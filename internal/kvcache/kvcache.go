// Package kvcache defines the KV cache abstraction shared by the tiny
// transformer (internal/model) and the compression methods (internal/quant,
// internal/sparse), a full-precision reference implementation (Full) and the
// serving engine's paged cache (PagedKV), both read page by page through the
// Paged seam.
//
// Layout: the reference cache stores entries per layer as one flat,
// token-major []float32 growable buffer (token i, head h at offset
// i*KVHeads*HeadDim + h*HeadDim), which Paged exposes zero-copy as a single
// growing page. The generic Seq view materialises per-token sub-slices for
// caches that retain irregular token subsets. Rotary position embeddings are
// applied to keys *before* caching, matching the layout used by LLaMA-family
// inference engines. Eviction-based caches may retain different token subsets
// per head, so all read paths are addressed by (layer, head).
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

// BytesPerElemFP16 is the storage cost of one cache element in the FP16
// baseline; memory accounting throughout the repository is in FP16-equivalent
// bytes so that compression ratios match the paper's reporting.
const BytesPerElemFP16 = 2

// Cache is the interface the model's attention layers read and write.
//
// Append stores the (RoPE'd) key and value vectors for the next token of a
// layer; k and v each hold KVHeads vectors of length HeadDim. Implementations
// MUST copy the vectors rather than retain the slices: the model passes
// reused scratch buffers that are overwritten on the next step. Seq returns
// the retained entries for one head in storage order: compressed caches
// return dequantised or pruned views here, which is what makes the accuracy
// effects of compression real rather than modelled. Positions returns the
// absolute position of each retained entry, aligned with Seq.
type Cache interface {
	Shape() Shape
	Append(layer int, k, v [][]float32)
	Seq(layer, head int) (keys, values [][]float32)
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
// model forwards the weights (aligned with the entries returned by Seq).
// Observers must not retain the weights slice: it is a reused scratch buffer.
type AttentionObserver interface {
	ObserveAttention(layer, head int, weights []float32)
}

// Paged is the one fast path the model's attention takes over a cache that
// retains every appended token at a regular layout: the cache is a list of
// pages per layer, each yielding one KV head's key or value rows as the
// attention block kernels read them (tensor.Rows: fp32 rows in place, or
// uniform codes the kernel dequantizes). PagedKV implements it over its page
// table whatever the page codec; Full is one growing page per layer. Caches
// whose Append carries policy (eviction scoring, offline quantisation) do not
// implement it and are read through Seq, the scalar reference.
//
// AppendFlatN appends n consecutive tokens' K/V for a layer: k and v hold n
// whole-token head-major vectors back to back (token t, head h at offset
// t*KVHeads*HeadDim + h*HeadDim). The stored bytes, page boundaries included,
// are identical to n single-token calls and to n Append calls over per-head
// views of the same buffers, so a decode step (n = 1) and a prefill chunk of
// any size leave the same cache. There is no cross-session form: every stream
// owns a distinct cache.
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
	AppendFlatN(layer, n int, k, v []float32)
	LayerPages(layer int) int
	Rows(layer, page, head int, vals bool) (rows tensor.Rows, tokens int)
	KeySummary(layer, page int) []float32
}

var (
	_ Paged = (*Full)(nil)
	_ Paged = (*PagedKV)(nil)
)

// Full is the uncompressed FP16-baseline cache: every appended token is
// retained in full precision for every head. Storage is one flat token-major
// growable buffer per layer (token i, head h at offset i*stride + h*HeadDim,
// stride = KVHeads*HeadDim), so attention can stream it with zero copies.
type Full struct {
	shape    Shape
	keys     [][]float32 // [layer] flat token-major, len = tokens*KVHeads*HeadDim
	values   [][]float32
	appended int
}

// NewFull allocates an empty full-precision cache. It panics on an invalid
// shape.
func NewFull(shape Shape) *Full {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	return &Full{
		shape:  shape,
		keys:   make([][]float32, shape.Layers),
		values: make([][]float32, shape.Layers),
	}
}

// Shape returns the cache dimensions.
func (c *Full) Shape() Shape { return c.shape }

// stride is the flat-buffer distance between consecutive tokens.
func (c *Full) stride() int { return c.shape.KVHeads * c.shape.HeadDim }

// Append stores one token's K/V for the given layer by copying the head
// vectors onto the end of the layer's flat buffers.
func (c *Full) Append(layer int, k, v [][]float32) {
	c.checkAppend(layer, k, v)
	for h := 0; h < c.shape.KVHeads; h++ {
		c.keys[layer] = append(c.keys[layer], k[h]...)
		c.values[layer] = append(c.values[layer], v[h]...)
	}
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

// AppendFlatN implements Paged: n tokens' K/V arrive as one contiguous
// token-major span and are copied onto the layer's flat buffer in a single
// append each — the same bytes Append stores head by head, in one grow.
func (c *Full) AppendFlatN(layer, n int, k, v []float32) {
	if layer < 0 || layer >= c.shape.Layers {
		panic(fmt.Sprintf("kvcache: layer %d out of range", layer))
	}
	if n < 0 || len(k) != n*c.stride() || len(v) != len(k) {
		panic("kvcache: flat append length mismatch")
	}
	c.keys[layer] = append(c.keys[layer], k...)
	c.values[layer] = append(c.values[layer], v...)
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

func (c *Full) checkAppend(layer int, k, v [][]float32) {
	if layer < 0 || layer >= c.shape.Layers {
		panic(fmt.Sprintf("kvcache: layer %d out of range", layer))
	}
	if len(k) != c.shape.KVHeads || len(v) != c.shape.KVHeads {
		panic("kvcache: head count mismatch on append")
	}
	for h := 0; h < c.shape.KVHeads; h++ {
		if len(k[h]) != c.shape.HeadDim || len(v[h]) != c.shape.HeadDim {
			panic("kvcache: head dim mismatch on append")
		}
	}
}

// Seq returns per-token views of the retained keys and values for one head.
// The views alias the flat buffers; only the two header slices allocate.
// Unlike the historical per-token layout, a later Append may grow the flat
// buffer and reallocate it: previously returned views then keep reading the
// old (stale) backing array and pin it in memory. Read views before the next
// Append, or copy them to retain. Hot paths read Rows instead.
func (c *Full) Seq(layer, head int) (keys, values [][]float32) {
	d := c.shape.HeadDim
	stride := c.stride()
	off := head * d
	n := c.Len(layer, 0)
	keys = make([][]float32, n)
	values = make([][]float32, n)
	for i := 0; i < n; i++ {
		keys[i] = c.keys[layer][i*stride+off : i*stride+off+d]
		values[i] = c.values[layer][i*stride+off : i*stride+off+d]
	}
	return keys, values
}

// LayerPages implements Paged: the layer's flat buffer is one page, and an
// empty cache has none (empty fp32 rows would read as a code page).
func (c *Full) LayerPages(layer int) int { return min(len(c.keys[layer]), 1) }

// Rows implements Paged with zero copies and zero allocation: the layer's
// flat buffer offset to the head's lane, holding every appended token.
func (c *Full) Rows(layer, _, head int, vals bool) (tensor.Rows, int) {
	buf := c.keys[layer]
	if vals {
		buf = c.values[layer]
	}
	return tensor.Rows{F32: buf[head*c.shape.HeadDim:], Stride: c.stride()}, len(buf) / c.stride()
}

// KeySummary implements Paged: Full keeps no key summaries.
func (c *Full) KeySummary(layer, page int) []float32 { return nil }

// Positions returns 0..n-1: the full cache retains every position.
func (c *Full) Positions(layer, head int) []int {
	n := c.Len(layer, head)
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports the retained entry count for a head (uniform for Full).
func (c *Full) Len(layer, head int) int { return len(c.keys[layer]) / c.stride() }

// TotalAppended reports how many tokens have been appended.
func (c *Full) TotalAppended() int { return c.appended }

// MemoryBytes reports resident size in FP16-equivalent bytes.
func (c *Full) MemoryBytes() int64 {
	var elems int64
	for l := range c.keys {
		elems += int64(len(c.keys[l])) * 2 // K and V
	}
	return elems * BytesPerElemFP16
}

// FP16Bytes returns the FP16 footprint of a cache holding tokens tokens for
// the given shape — the baseline against which compression ratios are
// computed.
func FP16Bytes(shape Shape, tokens int) int64 {
	return int64(tokens) * int64(shape.Layers) * int64(shape.KVHeads) * int64(shape.HeadDim) * 2 * BytesPerElemFP16
}
