package kvcache

import "rethinkkv/internal/tensor"

// This file is PagedKV's page and its codecs — everything that depends on how
// a page stores a token: encoding a span into it, sealing it, copying a head
// of it, yielding its rows to a reader, and its byte size (pool.go makes
// pages). The fp32 codec stores the model's K/V projections as they arrive.
// The quantized codec is the live-plane counterpart of internal/quant's
// offline Uniform quantizer (which cannot be imported here — it sits above
// kvcache): each token's K/V head slices are uniform-asymmetric quantized the
// moment they are appended (tensor.QuantEncode) — codes c = round((x-lo)/Δ)
// clamped to [0, 2^bits-1], Δ and lo stored as float16 — and every read
// dequantizes x = float32(c)·Δ + lo, the exact arithmetic of quant.Uniform
// and of tensor's attention block kernels.
//
// Quantizing per token at append time (rather than when a page seals) is
// what keeps the serving plane's bit-exactness contracts intact: a token's
// stored representation never changes after its append, so attention reads
// are identical whether the context arrived token-at-a-time (decode), in
// prefill chunks of any size, or through a preemption→recompute replay — the
// recompute requantizes to the identical pages. A seal-time encoding would
// make reads depend on how many later tokens had landed when a page filled,
// which differs between chunked and incremental execution. The seal a page
// does get (below) only moves its keys' codes into the attention kernels'
// panel order: it changes where a value lies, never what it is.

// page is one layer's share of one fixed-capacity KV page: n tokens in the
// cache's codec, and the page's key summary when summaries are on. Every
// buffer is allocated at full capacity and holds the K half then the V half,
// each head-major — [half][head][token][dim], so one head's rows of a page
// are one run of PageTokens·HeadDim elements, HeadDim apart (tensor.Rows):
// f32 for the fp32 codec; for the quantized codec codes (4-bit packs two per
// byte, low nibble first) and one (lo, delta) float16 pair per (token,
// kv-head) slice in params, [half][head][token] (head h's token i of the K
// half at (h*PageTokens+i)*2), so a head's pairs are one run too.
//
// When an append fills a page whose size is a multiple of tensor.SealTokens
// the page seals: its K half is rewritten in place as the attention score
// tile's panels — every 16 tokens of a head one HeadDim × 16 dim-major panel
// (tensor.SealedAt) — so a walk reads a sealed page's keys as the panel with
// no per-visit transpose. Sealing moves codes and never re-quantizes them:
// every stored value, and every read of it, is what it was before. The V
// half, the pairs and a page still open keep token rows. A full page is
// immutable — clones share it by reference.
type page struct {
	n      int
	sealed bool
	f32    []float32
	codes  []uint8
	params []uint16
	summ   []float32
}

// store writes t tokens' flat token-major K/V behind the p.n tokens the page
// holds, each (token, head) slice — a HeadDim-element run of the span — into
// its head's rows of both halves, encoded by the quantized codec. It walks a
// head at a time: the head's slices lie KVHeads·HeadDim apart in the span and
// land in consecutive rows of the page.
func (c *PagedKV) store(p *page, t int, k, v []float32) {
	kvh, d, pt, bits := c.shape.KVHeads, c.shape.HeadDim, c.pageTokens, c.qbits
	half, stride, cw := kvh*pt*d, kvh*d, d*bits/8
	for h := 0; h < kvh; h++ {
		// row is the (head, token) row the slice at s lands in, in either half.
		for s, row := h*d, h*pt+p.n; s < t*stride; s, row = s+stride, row+1 {
			e, ks, vs := row*d, k[s:s+d], v[s:s+d]
			if bits == 0 {
				copy(p.f32[e:e+d], ks)
				copy(p.f32[half+e:half+e+d], vs)
				continue
			}
			tensor.QuantEncode(p.codes[e*bits/8:][:cw], p.params[2*row:][:2], ks, bits)
			tensor.QuantEncode(p.codes[(half+e)*bits/8:][:cw], p.params[2*(kvh*pt+row):][:2], vs, bits)
		}
	}
}

// seals reports whether a full page of the cache seals.
func (c *PagedKV) seals() bool { return c.pageTokens%tensor.SealTokens == 0 }

// seal rewrites a full page's K half in place as sealed rows, head by head,
// through the pool's scratch: no allocation, no re-quantization.
func (c *PagedKV) seal(p *page) {
	d, ps := c.shape.HeadDim, c.pageTokens*c.shape.HeadDim
	for h := 0; h < c.shape.KVHeads; h++ {
		if c.qbits == 0 {
			tensor.SealF32(p.f32[h*ps:(h+1)*ps], c.pool.sealF32, d)
			continue
		}
		cb := ps * c.qbits / 8
		tensor.SealCodes(p.codes[h*cb:(h+1)*cb], c.pool.sealCodes, c.qbits, d)
	}
	p.sealed = true
}

// head returns a private page of full capacity holding the first tokens
// tokens of src — rows, or codes and float16 parameters, never re-quantized;
// a sealed K half's rows copied back to token rows — with the key summary
// folded afresh over just those tokens, so the copy can keep appending
// independently of src.
func (c *PagedKV) head(src *page, tokens int) page {
	h := c.pool.get()
	h.n = tokens
	d, pt, kvh, bits := c.shape.HeadDim, c.pageTokens, c.shape.KVHeads, c.qbits
	n := tokens * d
	for hh := 0; hh < 2*kvh; hh++ { // [half][head]: K's heads, then V's
		off, unseal := hh*pt*d, src.sealed && hh < kvh
		switch {
		case bits == 0 && unseal:
			tensor.UnsealF32(h.f32[off:], src.f32[off:], tokens, d)
		case bits == 0:
			copy(h.f32[off:off+n], src.f32[off:])
		case unseal:
			tensor.UnsealCodes(h.codes[off*bits/8:], src.codes[off*bits/8:], bits, tokens, d)
		default:
			copy(h.codes[off*bits/8:(off+n)*bits/8], src.codes[off*bits/8:])
		}
		if bits != 0 {
			copy(h.params[2*hh*pt:][:2*tokens], src.params[2*hh*pt:])
		}
	}
	if c.summaries {
		c.fold(&h, 0, tokens)
	}
	return h
}

// rows returns p's key rows (value rows when vals) from one head on as the
// attention block kernels read them, cut to the half's capacity.
func (c *PagedKV) rows(p *page, head int, vals bool) tensor.Rows {
	d, ps, kvh := c.shape.HeadDim, c.pageTokens*c.shape.HeadDim, c.shape.KVHeads
	lo, hi, pairs := head*ps, kvh*ps, 2*head*c.pageTokens
	if vals {
		lo, hi, pairs = lo+kvh*ps, 2*kvh*ps, pairs+2*kvh*c.pageTokens
	}
	r := tensor.Rows{HeadStride: ps, Sealed: p.sealed && !vals}
	if c.qbits == 0 {
		r.F32 = p.f32[lo:hi]
		return r
	}
	r.Codes, r.Params, r.Bits = p.codes[lo*c.qbits/8:hi*c.qbits/8], p.params[pairs:pairs+2*(hi-lo)/d], c.qbits
	return r
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
