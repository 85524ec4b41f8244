package kvcache

import "rethinkkv/internal/tensor"

// This file is PagedKV's page and its codecs — everything that depends on how
// a page stores a token: encoding a span into it, copying a head of it,
// yielding its rows to a reader, and its byte size (pool.go makes pages). The
// fp32 codec stores the model's K/V projections as they arrive. The quantized
// codec is the live-plane counterpart of internal/quant's offline Uniform
// quantizer (which cannot be imported here — it sits above kvcache): each
// token's K/V head slices are uniform-asymmetric quantized the moment they are
// appended (tensor.QuantEncode) — codes c = round((x-lo)/Δ) clamped to
// [0, 2^bits-1], Δ and lo stored as float16 — and every read dequantizes
// x = float32(c)·Δ + lo, the exact arithmetic of quant.Uniform and of
// tensor's attention block kernels.
//
// Quantizing per token at append time (rather than when a page seals) is
// what keeps the serving plane's bit-exactness contracts intact: a token's
// stored representation never changes after its append, so attention reads
// are identical whether the context arrived token-at-a-time (decode),
// in prefill chunks of any size, or through a preemption→recompute replay —
// the recompute requantizes to the identical pages. A seal-time scheme
// would make reads depend on how many later tokens had landed when a page
// filled, which differs between chunked and incremental execution.

// page is one layer's share of one fixed-capacity KV page: n tokens in the
// cache's codec, and the page's key summary when summaries are on. Every
// buffer is allocated at full capacity and holds the K half then the V half
// (PageTokens tokens each), token-major at the element stride KVHeads*HeadDim
// (token i, head h at element offset i*stride + h*HeadDim): f32 for the fp32
// codec; for the quantized codec codes (4-bit packs two per byte, low nibble
// first) and one (lo, delta) float16 pair per (token, kv-head) slice in params
// (token i, head h at (i*KVHeads+h)*2). A full page is immutable — clones
// share it by reference, never re-quantizing.
type page struct {
	n      int
	f32    []float32
	codes  []uint8
	params []uint16
	summ   []float32
}

// store writes t tokens' flat head-major K/V behind the p.n tokens the page
// holds. A token's (token, head) slices are consecutive HeadDim-element runs
// of both the span and the page, so the quantized codec encodes them in one
// loop.
func (c *PagedKV) store(p *page, t int, k, v []float32) {
	stride, kvh, d := c.stride(), c.shape.KVHeads, c.shape.HeadDim
	if c.qbits == 0 {
		copy(p.f32[p.n*stride:], k)
		copy(p.f32[(c.pageTokens+p.n)*stride:], v)
		return
	}
	cw := d * c.qbits / 8 // code bytes per slice
	ks, vs := p.n*kvh, (c.pageTokens+p.n)*kvh
	for i := 0; i < t*kvh; i++ {
		tensor.QuantEncode(p.codes[(ks+i)*cw:][:cw], p.params[(ks+i)*2:][:2], k[i*d:(i+1)*d], c.qbits)
		tensor.QuantEncode(p.codes[(vs+i)*cw:][:cw], p.params[(vs+i)*2:][:2], v[i*d:(i+1)*d], c.qbits)
	}
}

// head returns a private page of full capacity holding the first tokens
// tokens of src — rows, or codes and float16 parameters, never re-quantized —
// with the key summary folded afresh over just those tokens, so the copy can
// keep appending independently of src.
func (c *PagedKV) head(src *page, tokens int) page {
	h := c.pool.get()
	h.n = tokens
	copyHead(h.f32, src.f32, tokens, c.pageTokens)
	copyHead(h.codes, src.codes, tokens, c.pageTokens)
	copyHead(h.params, src.params, tokens, c.pageTokens)
	if c.summaries {
		c.fold(&h, 0, tokens)
	}
	return h
}

// copyHead copies the first tokens tokens of both halves of a page buffer.
func copyHead[T any](dst, src []T, tokens, pageTokens int) {
	half := len(src) / 2
	n := half / pageTokens * tokens
	copy(dst[:n], src[:n])
	copy(dst[half:half+n], src[half:half+n])
}

// rows returns p's key rows (value rows when vals) for one head as the
// attention block kernels read them, cut to the half's capacity.
func (c *PagedKV) rows(p *page, head int, vals bool) tensor.Rows {
	stride, kvh, off := c.stride(), c.shape.KVHeads, head*c.shape.HeadDim
	lo := 0
	if vals {
		lo = c.pageTokens
	}
	hi := lo + c.pageTokens
	if c.qbits == 0 {
		return tensor.Rows{F32: p.f32[lo*stride+off : hi*stride], Stride: stride}
	}
	return tensor.Rows{
		Codes:  p.codes[lo*stride*c.qbits/8 : hi*stride*c.qbits/8],
		Params: p.params[lo*kvh*2 : hi*kvh*2],
		Bits:   c.qbits, Off: off, Stride: stride, Heads: kvh, Head: head,
	}
}

// pageBytes is what MemoryBytes charges one page of one layer: fp32 pages in
// FP16-equivalent bytes (the accuracy-comparison vocabulary), quantized pages
// at their stored size (codes plus float16 parameter pairs).
func (c *PagedKV) pageBytes() int64 {
	if c.qbits == 0 {
		return int64(c.pageTokens) * int64(c.stride()) * 2 * BytesPerElemFP16
	}
	return PageBitsQuant(c.shape, c.pageTokens, c.qbits) / 8
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
