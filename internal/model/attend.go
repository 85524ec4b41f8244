package model

import (
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// This file is the model's one attention page walk. Every cache with a
// regular layout is read through kvcache.Paged — Full's flat buffer as one
// page, PagedKV's pages whatever their codec — and one routine (attendBlock)
// runs the materialised two-pass softmax over it for a *block of queries* that
// share a KV head (tensor.AttnBlock: a decode lane's GQA group, a prefill
// chunk's rows × group, or one query under Quest): per page visit score the
// walked tokens for the whole block, then per query scale, softmax and show
// the weights to an attention observer, then per page visit accumulate the
// values for the whole block. Each K and V page is streamed — and a quantized
// one dequantized — once per (pass, KV head), not once per query head. The
// walk covers either every page up to the block's largest token bound
// (decode, and chunk prefill's mid-page causal bounds) or an ascending
// selected page list (Quest topK, see sparse.go). The two-pass form is what
// H2O/MiKV-style observers need (the full score vector) and what every
// bit-identity test pins: per query and per token the block kernels keep the
// arithmetic and reduction order of tensor.Dot and tensor.AXPY over per-token
// views — the generic Seq arm, attendSeq — whatever the codec and block size.

// pageView is one (layer, kv-head) slice of a paged cache: the walk asks the
// cache for each page's rows.
type pageView struct {
	paged       kvcache.Paged
	layer, head int
}

// walk runs one pass of the block — the score pass, or the value pass when
// vals — over the first n tokens of the walked pages: the ascending list sel,
// or every page when sel is nil. A causal bound cuts the last page mid-page;
// a selected list always fits whole pages. It returns how many tokens the
// walk covered.
func (v *pageView) walk(blk *tensor.AttnBlock, sel []int32, n int, vals bool) int {
	np := len(sel)
	if sel == nil {
		np = v.paged.LayerPages(v.layer)
	}
	i := 0
	for k := 0; k < np && i < n; k++ {
		p := k
		if sel != nil {
			p = int(sel[k])
		}
		r, t := v.paged.Rows(v.layer, p, v.head, vals)
		t = min(t, n-i)
		if vals {
			blk.Accumulate(i, t, &r)
		} else {
			blk.Score(i, t, &r)
		}
		i += t
	}
	return i
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
// attention weights in place, returning the walk's token count.
func (m *Model) softmaxBlock(blk *tensor.AttnBlock, cp *cachePath, v *pageView, sel []int32) int {
	covered := v.walk(blk, sel, blk.Bound(), false)
	for q := 0; q < blk.Len(); q++ {
		w := blk.Weights(q, covered)
		tensor.Scale(w, m.invSqrtHD)
		tensor.Softmax(w)
		if cp.observer != nil {
			cp.observer.ObserveAttention(v.layer, v.head, w)
		}
	}
	return covered
}
