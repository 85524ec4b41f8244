package model

import (
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// This file is the model's one attention page walk. Every cache with a
// regular layout — Full's flat buffer, fp32 pages, quantized pages — is
// seen through a pageView, and one routine (attendBlock) runs the
// materialised two-pass softmax over it for a *block of queries* that share
// the view's KV head (tensor.AttnBlock: a decode lane's GQA group, a prefill
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

// pageView is one (layer, kv-head) slice of a cache as a list of pages.
// Exactly one layout is set: flatK/flatV (Full's buffer as a single page
// holding n tokens, already offset to the head's lane), keys/vals (fp32 pages,
// token-major rows of stride elements with the head at off), or quant
// (code pages bits wide, same element layout).
type pageView struct {
	flatK, flatV []float32
	n            int
	keys, vals   [][]float32
	quant        []kvcache.QuantPage
	bits         int
	off, stride  int
	kvHeads      int
	head         int
}

// viewOf resolves the page view of layer l, kv-head kh. n is the walk's
// token bound, which is all of the flat layout's single page a walk can
// reach; paged layouts carry their own per-page counts.
func (m *Model) viewOf(cp *cachePath, l, kh, n int) pageView {
	v := pageView{off: kh * m.cfg.HeadDim, kvHeads: m.cfg.KVHeads, head: kh}
	switch {
	case cp.flat != nil:
		v.flatK, v.flatV, v.stride = cp.flat.FlatSeq(l, kh)
		v.n = n
	case cp.quant != nil:
		v.quant, v.stride = cp.quant.QuantPages(l)
		v.bits = cp.quant.QuantBits()
	default:
		v.keys, v.vals, v.stride = cp.pager.KVPages(l)
	}
	return v
}

// pages returns the view's page count.
func (v *pageView) pages() int {
	switch {
	case v.flatK != nil:
		return 1
	case v.bits != 0:
		return len(v.quant)
	}
	return len(v.keys)
}

// tokens returns how many tokens page p holds.
func (v *pageView) tokens(p int) int {
	switch {
	case v.flatK != nil:
		return v.n
	case v.bits != 0:
		return v.quant[p].Tokens(v.kvHeads)
	}
	return len(v.keys[p]) / v.stride
}

// rows returns page p's key rows, or its value rows, for the view's head as
// the block kernels read them. Every value is finite: fp32 pages hold the
// model's own K/V projections, code pages their fp16-parameter
// dequantizations (the precondition of tensor.AttnBlock.Weights' zero-fill).
func (v *pageView) rows(p int, vals bool) tensor.Rows {
	r := tensor.Rows{Stride: v.stride}
	switch {
	case v.bits != 0:
		pg := &v.quant[p]
		r.Bits, r.Off, r.Heads, r.Head = v.bits, v.off, v.kvHeads, v.head
		if r.Codes, r.Params = pg.KCodes, pg.KParams; vals {
			r.Codes, r.Params = pg.VCodes, pg.VParams
		}
	case v.flatK != nil:
		if r.F32 = v.flatK; vals {
			r.F32 = v.flatV
		}
	case vals:
		r.F32 = v.vals[p][v.off:]
	default:
		r.F32 = v.keys[p][v.off:]
	}
	return r
}

// walk runs one pass of the block — the score pass, or the value pass when
// vals — over the first n tokens of the walked pages: the ascending list sel,
// or every page when sel is nil. A causal bound cuts the last page mid-page;
// a selected list always fits whole pages. It returns how many tokens the
// walk covered.
func (v *pageView) walk(blk *tensor.AttnBlock, sel []int32, n int, vals bool) int {
	np := v.pages()
	if sel != nil {
		np = len(sel)
	}
	i := 0
	for k := 0; k < np && i < n; k++ {
		p := k
		if sel != nil {
			p = int(sel[k])
		}
		t := min(v.tokens(p), n-i)
		r := v.rows(p, vals)
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
func (m *Model) attendBlock(blk *tensor.AttnBlock, cp *cachePath, v *pageView, l int, sel []int32) {
	covered := m.softmaxBlock(blk, cp, v, l, sel)
	v.walk(blk, sel, covered, true)
}

// softmaxBlock runs the score pass and turns every query's score row into its
// attention weights in place, returning the walk's token count.
func (m *Model) softmaxBlock(blk *tensor.AttnBlock, cp *cachePath, v *pageView, l int, sel []int32) int {
	covered := v.walk(blk, sel, blk.Bound(), false)
	for q := 0; q < blk.Len(); q++ {
		w := blk.Weights(q, covered)
		tensor.Scale(w, m.invSqrtHD)
		tensor.Softmax(w)
		if cp.observer != nil {
			cp.observer.ObserveAttention(l, v.head, w)
		}
	}
	return covered
}
