package kvcache

import (
	"fmt"
	"math"

	"rethinkkv/internal/tensor"
)

// This file gives PagedKV a quantized page backend: the live-plane
// counterpart of internal/quant's offline Uniform quantizer (which cannot be
// imported here — it sits above kvcache). Each token's K/V head slices are
// uniform-asymmetric quantized the moment they are appended — codes
// c = round((x-lo)/Δ) clamped to [0, 2^bits-1], Δ and lo stored as float16 —
// and every read dequantizes x = float32(c)·Δ + lo, the exact arithmetic of
// quant.Uniform and of tensor's fused dequantize-on-stream kernels.
//
// Quantizing per token at append time (rather than when a page seals) is
// what keeps the serving plane's bit-exactness contracts intact: a token's
// stored representation never changes after its append, so attention reads
// are identical whether the context arrived token-at-a-time (decode),
// in prefill chunks of any size, or through a preemption→recompute replay —
// the recompute requantizes to the identical pages. A seal-time scheme
// would make reads depend on how many later tokens had landed when a page
// filled, which differs between chunked and incremental execution.

// QuantPage is one fixed-capacity quantized KV page. Codes are token-major
// at the fp32 layout's element stride (token i, head h at element offset
// i*stride + h*HeadDim); 4-bit codes pack two per byte, low nibble first.
// Params hold one (lo, delta) float16 pair per (token, kv-head) slice:
// token i, head h at KParams[(i*kvHeads+h)*2]. A full page is immutable —
// ClonePrefix shares it by reference, never re-quantizing.
type QuantPage struct {
	KCodes, VCodes   []uint8
	KParams, VParams []uint16
}

// Tokens returns the page's current token count.
func (p *QuantPage) Tokens(kvHeads int) int { return len(p.KParams) / (kvHeads * 2) }

// QuantReader is the zero-copy read path over quantized page storage — the
// quantized sibling of PageReader. QuantBits reports the code width (0 means
// the cache is full-precision and QuantPages must not be used). The returned
// pages alias cache-owned storage and are valid until the next Append.
type QuantReader interface {
	QuantPages(layer int) (pages []QuantPage, stride int)
	QuantBits() int
	PageTokens() int
}

// quantBitsValid reports whether bits names a supported code width.
func quantBitsValid(bits int) bool { return bits == 0 || bits == 4 || bits == 8 }

// NewPagedKVQuant is NewPagedKVBudget with quantized page storage: bits must
// be 4 or 8 (0 falls back to full-precision pages). 4-bit packing requires
// an even head dimension, which RoPE already demands of the model.
func NewPagedKVQuant(shape Shape, pageTokens, maxPages, bits int) *PagedKV {
	if !quantBitsValid(bits) {
		panic(fmt.Sprintf("kvcache: unsupported quant width %d (want 4 or 8)", bits))
	}
	if bits == 4 && shape.HeadDim%2 != 0 {
		panic("kvcache: 4-bit KV quantization requires an even head dimension")
	}
	c := NewPagedKVBudget(shape, pageTokens, maxPages)
	if bits != 0 {
		c.qbits = bits
		c.qPages = make([][]QuantPage, shape.Layers)
	}
	return c
}

// QuantBits implements QuantReader: the configured code width, 0 when the
// cache stores full-precision pages.
func (c *PagedKV) QuantBits() int { return c.qbits }

// QuantPages implements QuantReader with zero copies and zero allocation.
func (c *PagedKV) QuantPages(layer int) ([]QuantPage, int) {
	return c.qPages[layer], c.stride()
}

// qPageForAppend returns the quantized page the next token goes into,
// opening a fresh fixed-capacity page — budget-checked, never touching full
// (possibly shared) pages — when the current one is full.
func (c *PagedKV) qPageForAppend(layer int) *QuantPage {
	pages := c.qPages[layer]
	if len(pages) == 0 || pages[len(pages)-1].Tokens(c.shape.KVHeads) == c.pageTokens {
		if c.maxPages > 0 && len(pages) >= c.maxPages {
			panic(fmt.Errorf("%w: unreserved append past %d-page budget", ErrOutOfPages, c.maxPages))
		}
		c.qPages[layer] = append(c.qPages[layer], c.newQuantPage())
		if c.summaries {
			c.summOpenPage(layer)
		}
	}
	return &c.qPages[layer][len(c.qPages[layer])-1]
}

// newQuantPage allocates an empty quantized page of full capacity. K and V
// carve halves of one backing array each (codes, params): page-open cost stays
// at the fp32 plane's two allocations per layer (plus one summary slot when
// key summaries are on, exactly like the fp32 plane), and the sub-slices'
// capacities are pinned so appends can never grow one half into the other.
func (c *PagedKV) newQuantPage() QuantPage {
	codeCap := c.pageTokens * c.stride() * c.qbits / 8
	paramCap := c.pageTokens * c.shape.KVHeads * 2
	codeBuf := make([]uint8, 2*codeCap)
	paramBuf := make([]uint16, 2*paramCap)
	return QuantPage{
		KCodes:  codeBuf[0:0:codeCap],
		VCodes:  codeBuf[codeCap : codeCap : 2*codeCap],
		KParams: paramBuf[0:0:paramCap],
		VParams: paramBuf[paramCap : paramCap : 2*paramCap],
	}
}

// quantPageHead deep-copies the first tokens tokens of p — codes and float16
// parameters, never re-quantized — into a fresh page of full capacity, so the
// copy can keep appending independently of p.
func (c *PagedKV) quantPageHead(p *QuantPage, tokens int) QuantPage {
	codes := tokens * c.stride() * c.qbits / 8
	params := tokens * c.shape.KVHeads * 2
	h := c.newQuantPage()
	h.KCodes = append(h.KCodes, p.KCodes[:codes]...)
	h.VCodes = append(h.VCodes, p.VCodes[:codes]...)
	h.KParams = append(h.KParams, p.KParams[:params]...)
	h.VParams = append(h.VParams, p.VParams[:params]...)
	return h
}

// appendQuantToken quantizes one token's flat head-major K/V onto the
// current quantized page. Steady-state cost is append-only into
// pre-allocated page capacity: no allocation except at page open. When key
// summaries are on, each head's min/max fold runs over the dequantized key
// values inside the encode loop, so the summary is a pure function of the
// stored codes.
func (c *PagedKV) appendQuantToken(layer int, k, v []float32) {
	p := c.qPageForAppend(layer)
	d, stride := c.shape.HeadDim, c.stride()
	var summ []float32
	init := false
	if c.summaries {
		summ = c.kSumms[layer][len(c.qPages[layer])-1]
		init = p.Tokens(c.shape.KVHeads) == 0
	}
	for h := 0; h < c.shape.KVHeads; h++ {
		var smin, smax []float32
		if summ != nil {
			smin = summ[h*d : (h+1)*d]
			smax = summ[stride+h*d : stride+(h+1)*d]
		}
		p.KCodes, p.KParams = quantAppendSlice(p.KCodes, p.KParams, k[h*d:(h+1)*d], c.qbits, smin, smax, init)
		p.VCodes, p.VParams = quantAppendSlice(p.VCodes, p.VParams, v[h*d:(h+1)*d], c.qbits, nil, nil, false)
	}
}

// quantAppendSlice uniform-quantizes one head slice and appends its codes
// and (lo, delta) float16 pair. Codes are computed against the
// float16-decoded parameters — the exact values every reader reconstructs
// with — so encode and decode agree bit-for-bit. A constant slice (or one
// whose range underflows float16) stores delta = 0 and all-zero codes,
// dequantizing to lo, exactly like quant.Uniform.
//
// When smin/smax are non-nil they receive the per-channel min/max fold of
// the *dequantized* values float32(code)*Δ+lo — what attention will stream —
// seeded from this token when init is true.
func quantAppendSlice(codes []uint8, params []uint16, x []float32, bits int, smin, smax []float32, init bool) ([]uint8, []uint16) {
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	loBits := tensor.EncodeFloat16(lo)
	loD := tensor.DecodeFloat16(loBits)
	maxCode := float32(int(1)<<bits - 1)
	delta := (hi - loD) / maxCode
	dBits := tensor.EncodeFloat16(delta)
	dD := tensor.DecodeFloat16(dBits)
	if !(dD > 0) {
		dBits, dD = 0, 0
	}
	params = append(params, loBits, dBits)
	fold := func(j int, deq float32) {
		if init {
			smin[j], smax[j] = deq, deq
			return
		}
		if deq < smin[j] {
			smin[j] = deq
		}
		if deq > smax[j] {
			smax[j] = deq
		}
	}
	if dD == 0 {
		if smin != nil {
			for j := range x {
				fold(j, loD) // every channel dequantizes to lo
			}
		}
		switch bits {
		case 8:
			for range x {
				codes = append(codes, 0)
			}
		case 4:
			for j := 0; j < len(x); j += 2 {
				codes = append(codes, 0)
			}
		}
		return codes, params
	}
	inv := 1 / dD
	encode := func(v float32) uint8 {
		cf := float32(math.Round(float64((v - loD) * inv)))
		if cf < 0 {
			cf = 0
		}
		if cf > maxCode {
			cf = maxCode
		}
		return uint8(cf)
	}
	switch bits {
	case 8:
		for j, v := range x {
			cde := encode(v)
			codes = append(codes, cde)
			if smin != nil {
				fold(j, float32(cde)*dD+loD)
			}
		}
	case 4:
		for j := 0; j < len(x); j += 2 {
			c0, c1 := encode(x[j]), encode(x[j+1])
			codes = append(codes, c0|c1<<4)
			if smin != nil {
				fold(j, float32(c0)*dD+loD)
				fold(j+1, float32(c1)*dD+loD)
			}
		}
	}
	return codes, params
}

// qLen sums the quantized pages' token counts for one layer.
func (c *PagedKV) qLen(layer int) int {
	n := 0
	for i := range c.qPages[layer] {
		n += c.qPages[layer][i].Tokens(c.shape.KVHeads)
	}
	return n
}

// seqQuant materializes dequantized per-token views — the generic
// (allocating) read path for a quantized cache; hot paths stream QuantPages
// through the fused kernels instead. The dequantization arithmetic is
// identical to the fused kernels', so the two read paths are bit-identical.
func (c *PagedKV) seqQuant(layer, head int) (keys, values [][]float32) {
	d := c.shape.HeadDim
	stride := c.stride()
	off := head * d
	kvh := c.shape.KVHeads
	n := c.qLen(layer)
	keys = make([][]float32, 0, n)
	values = make([][]float32, 0, n)
	for pi := range c.qPages[layer] {
		p := &c.qPages[layer][pi]
		for i := 0; i < p.Tokens(kvh); i++ {
			kb := make([]float32, d)
			vb := make([]float32, d)
			tensor.DequantSliceInto(kb, p.KCodes, p.KParams, c.qbits, off, stride, kvh, head, i)
			tensor.DequantSliceInto(vb, p.VCodes, p.VParams, c.qbits, off, stride, kvh, head, i)
			keys = append(keys, kb)
			values = append(values, vb)
		}
	}
	return keys, values
}

// quantPageBytes is the byte footprint of one full quantized page (K and V
// codes at the configured width plus float16 parameter pairs).
func quantPageBytes(shape Shape, pageTokens, bits int) int64 {
	codes := int64(pageTokens) * int64(shape.KVHeads*shape.HeadDim) * 2 * int64(bits) / 8
	params := int64(pageTokens) * int64(shape.KVHeads) * 2 * 2 * 2
	return codes + params
}

// PageBitsFP32 is the bit cost of one full-precision K/V page as the live
// decode plane actually stores it (float32 elements) — the byte-budget
// baseline WithKVPages denominates. The FP16-equivalent convention used by
// MemoryBytes reporting is a separate, accuracy-comparison vocabulary.
func PageBitsFP32(shape Shape, pageTokens int) int64 {
	return int64(pageTokens) * int64(shape.KVHeads*shape.HeadDim) * 2 * 32
}

// PageBitsQuant is the bit cost of one quantized K/V page: codes at the
// given width plus one float16 (lo, delta) pair per (token, kv-head) slice
// for K and for V.
func PageBitsQuant(shape Shape, pageTokens, bits int) int64 {
	if bits == 0 {
		return PageBitsFP32(shape, pageTokens)
	}
	codes := int64(pageTokens) * int64(shape.KVHeads*shape.HeadDim) * 2 * int64(bits)
	params := int64(pageTokens) * int64(shape.KVHeads) * 2 * 2 * 16
	return codes + params
}

// ScaledPageBudget converts a page budget denominated in fp32 pages — the
// byte budget WithKVPages(n) defines — into the number of quantized pages
// the same bytes hold at the given code width. bits == 0 (or an unbounded
// budget) returns the budget unchanged, so full-precision accounting is the
// exact existing page math.
func ScaledPageBudget(kvPages int, shape Shape, pageTokens, bits int) int {
	if kvPages <= 0 || bits == 0 {
		return kvPages
	}
	return int(int64(kvPages) * PageBitsFP32(shape, pageTokens) / PageBitsQuant(shape, pageTokens, bits))
}
