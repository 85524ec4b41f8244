package model

import (
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// This file is the model's one attention page walk. Every cache with a
// regular layout — Full's flat buffer, fp32 pages, quantized pages — is
// seen through a pageView, and one routine (attendPaged) runs the
// materialised two-pass softmax over it: score the walked tokens, scale,
// softmax, show the scores to an attention observer, accumulate the values.
// The walk covers either every page up to a token bound (decode, and chunk
// prefill's mid-page causal bound) or an ascending selected page list
// (Quest topK, see sparse.go). The two-pass form is what H2O/MiKV-style
// observers need (the full score vector) and what every bit-identity test
// pins: per token the arithmetic and reduction order are exactly the generic
// Seq arm's in attendOver, whatever the page codec.

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

// kbuf and vbuf return page p's key and value rows starting at the head's
// lane (fp32 layouts only).
func (v *pageView) kbuf(p int) []float32 {
	if v.flatK != nil {
		return v.flatK
	}
	return v.keys[p][v.off:]
}

func (v *pageView) vbuf(p int) []float32 {
	if v.flatV != nil {
		return v.flatV
	}
	return v.vals[p][v.off:]
}

// walked returns how many pages an attention walks: the ascending list sel,
// or every page when sel is nil.
func (v *pageView) walked(sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return v.pages()
}

// step returns the k-th walked page and how many of its tokens fit in room,
// the tokens left under the walk's bound (a causal bound cuts the last page
// mid-page; a selected list always fits whole pages).
func (v *pageView) step(sel []int32, k, room int) (p, t int) {
	p = k
	if sel != nil {
		p = int(sel[k])
	}
	return p, min(v.tokens(p), room)
}

// score writes the raw q·k of the walked tokens into dst, whose length is
// the walk's token bound, and returns how many tokens the walk covered.
func (v *pageView) score(dst, q []float32, sel []int32) int {
	i := 0
	for k, np := 0, v.walked(sel); k < np && i < len(dst); k++ {
		p, t := v.step(sel, k, len(dst)-i)
		if v.bits != 0 {
			pg := &v.quant[p]
			tensor.DotQuantStrided(dst[i:i+t], q, pg.KCodes, pg.KParams, v.bits, v.off, v.stride, v.kvHeads, v.head)
		} else {
			tensor.DotStrided(dst[i:i+t], q, v.kbuf(p), v.stride)
		}
		i += t
	}
	return i
}

// accumulate adds Σ w[i]·value(i) over the same walk into out; w holds one
// weight per walked token.
func (v *pageView) accumulate(out, w []float32, sel []int32) {
	i := 0
	for k, np := 0, v.walked(sel); k < np && i < len(w); k++ {
		p, t := v.step(sel, k, len(w)-i)
		if v.bits != 0 {
			pg := &v.quant[p]
			tensor.AXPYQuantStrided(out, w[i:i+t], pg.VCodes, pg.VParams, v.bits, v.off, v.stride, v.kvHeads, v.head)
		} else {
			tensor.AXPYStrided(out, w[i:i+t], v.vbuf(p), v.stride)
		}
		i += t
	}
}

// attendPaged accumulates one query head's (ws.qv) attention over layer l,
// kv-head kh into out: n is the token bound (the head's retained count for
// decode, limit < 0; the causal bound for chunk prefill). Decode may narrow
// the walk to Quest's selected pages; a causal bound addresses by position,
// so prefill always walks densely.
func (m *Model) attendPaged(ws *Workspace, cp *cachePath, l, kh, limit, n int, out []float32) {
	v := m.viewOf(cp, l, kh, n)
	var sel []int32
	if limit < 0 {
		sel = m.selectPages(ws, cp, &v, l)
	}
	scores := ws.scoresFor(n)
	scores = scores[:v.score(scores, ws.qv, sel)]
	tensor.Scale(scores, m.invSqrtHD)
	tensor.Softmax(scores)
	if cp.observer != nil {
		cp.observer.ObserveAttention(l, kh, scores)
	}
	v.accumulate(out, scores, sel)
	if sel != nil && ws.probeRecall {
		ws.recordRecall(&v, sel, n, m.invSqrtHD)
	}
}
