package model

import (
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// This file is the model's one attention page walk. Every cache is read
// through kvcache.Paged — PagedKV's pages whatever their codec, Full's fp32
// pages among them, and any other cache (eviction, offline quantisation) as
// one fp32 page per KV head, its Seq (seqPage) — and one routine
// (attendBlock) runs the materialised two-pass softmax over it for a *block
// of queries* (tensor.AttnBlock: a decode lane's queries across its KV heads,
// a prefill chunk's rows × group of one KV head, or one query under Quest):
// per page visit score the walked tokens for the whole block, then scale and
// softmax every query's row at once and show each to an attention observer,
// then per page visit accumulate the values for the whole block. Each K and V
// page is streamed — and a quantized one dequantized — once per (pass, KV
// head), not once per query head. The walk covers either every page up to
// the block's largest token bound (decode, and chunk prefill's mid-page
// causal bounds) or an ascending selected page list (Quest topK, see
// sparse.go). The two-pass form is what H2O/SnapKV-style observers need (the
// full score vector) and what every bit-identity test pins: per query and per
// token the block kernels keep the arithmetic and reduction order of
// tensor.Dot, tensor.Softmax and tensor.AXPY over per-token rows — the
// scalar oracle the model's tests hold the walk to — whatever the cache,
// codec and block size.

// pageView is one (layer, kv-head) slice of a paged cache: the walk asks the
// cache for each page's rows of that head, the first of the block's heads.
type pageView struct {
	paged       kvcache.Paged
	layer, head int
}

// seqPage shows one KV head of a cache that is not Paged to the walk as a
// cache of one page: the head's Seq, token rows HeadDim apart — an open fp32
// page's layout. Len may differ by head, so a block over it holds one KV
// head's queries. The workspace keeps one, shown a head per block.
type seqPage struct {
	kvcache.Cache
	rows [2]tensor.Rows // keys, values
	n    int
}

// show sets the page to KV head kh of layer l of c.
func (s *seqPage) show(c kvcache.Cache, l, kh int) {
	keys, vals := c.Seq(l, kh)
	s.Cache, s.n = c, c.Len(l, kh)
	s.rows = [2]tensor.Rows{{F32: keys, HeadStride: len(keys)}, {F32: vals, HeadStride: len(vals)}}
}

func (s *seqPage) LayerPages(int) int            { return 1 }
func (s *seqPage) KeySummary(int, int) []float32 { return nil }
func (s *seqPage) Rows(_, _, _ int, vals bool) (tensor.Rows, int) {
	if vals {
		return s.rows[1], s.n
	}
	return s.rows[0], s.n
}

// walk runs one pass of the block — the score pass, or the value pass when
// vals — over the first n tokens of the walked pages: the ascending list sel,
// or every page when sel is nil. A causal bound cuts the last page mid-page;
// a selected list always fits whole pages. While the block works on a page
// it prefetches the next one's rows of its heads: a page's rows are one run
// per head (its keys, once the page sealed, the score tile's panels as they
// lie), but a lane's pages lie anywhere in memory, and the hardware
// prefetchers do not jump from one page to the next — without the look-ahead
// decode attention at context 1024 (fp32 pages, 8 lanes) reads 15–20 %
// slower. It returns how many tokens the walk covered.
func (v *pageView) walk(blk *tensor.AttnBlock, sel []int32, n int, vals bool) int {
	np := len(sel)
	if sel == nil {
		np = v.paged.LayerPages(v.layer)
	}
	page := func(k int) int {
		if sel != nil {
			return int(sel[k])
		}
		return k
	}
	if np == 0 || n <= 0 {
		return 0
	}
	r, t := v.paged.Rows(v.layer, page(0), v.head, vals)
	i := 0
	for k := 0; ; k++ {
		t = min(t, n-i)
		var next tensor.Rows
		nt := 0
		if k+1 < np && i+t < n {
			next, nt = v.paged.Rows(v.layer, page(k+1), v.head, vals)
			blk.Prefetch(&next, min(nt, n-i-t))
		}
		if vals {
			blk.Accumulate(i, t, &r)
		} else {
			blk.Score(i, t, &r)
		}
		i += t
		if nt == 0 {
			return i
		}
		r, t = next, nt
	}
}

// attendBlock accumulates the block's attention over the view into its
// queries' outputs: each query attends the walk's tokens up to its own bound
// (the head's retained count for decode; a chunk row's causal bound). sel
// narrows the walk to Quest's selected pages; a causal bound addresses by
// position, so prefill always walks densely.
func (m *Model) attendBlock(blk *tensor.AttnBlock, cp *cachePath, v *pageView, sel []int32) {
	covered := m.softmaxBlock(blk, cp, v, sel)
	v.walk(blk, sel, covered, true)
}

// softmaxBlock runs the score pass and turns every query's score row into its
// attention weights in place, returning the walk's token count. An observer
// is shown each query's weights in block order: a decode lane's query heads
// ascending, a chunk's (row, query head) pairs row-major within one KV head.
func (m *Model) softmaxBlock(blk *tensor.AttnBlock, cp *cachePath, v *pageView, sel []int32) int {
	covered := v.walk(blk, sel, blk.Bound(), false)
	blk.Softmax(covered, m.invSqrtHD)
	if cp.observer != nil {
		for q := 0; q < blk.Len(); q++ {
			cp.observer.ObserveAttention(v.layer, v.head+blk.Head(q), blk.Weights(q, covered))
		}
	}
	return covered
}
