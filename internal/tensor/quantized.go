package tensor

import "math"

// This file is the codec of quantized KV pages: the fp16 parameter codec, the
// encoder (QuantEncode), the code accessors and the seal's re-lay (SealF32,
// SealCodes and their inverse). A page stores uniform-quantized codes (8-bit,
// or 4-bit packed two per byte) in the same element layout as fp32 rows,
// plus one (lo, delta) float16 parameter pair per (token, kv-head) slice
// (Rows). An element dequantizes as x = float32(code)*delta + lo
// (Rows.TokenInto), the exact arithmetic of internal/quant's Uniform
// dequantizer. Attention reads a page 16 tokens of one head at a time
// (attend.go), so decode never materializes more than that sub-tile — and on
// the AVX-512 arm 8-bit codes not even that. The Go functions here are the
// specification; the AVX-512 arm's 8-bit encoder and fp16 parameter decoder
// (quant_amd64.s) are equal to them by bits.

// EncodeFloat16 converts an fp32 value to IEEE 754 binary16 bits with
// round-to-nearest-even, flushing overflow to ±Inf and tiny values to
// (sub)normals or zero.
func EncodeFloat16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32((b>>23)&0xFF) - 127 + 15
	man := b & 0x7FFFFF
	if exp >= 0x1F {
		if (b>>23)&0xFF == 0xFF && man != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // ±Inf (overflow included)
	}
	if exp <= 0 {
		if exp < -10 {
			return sign // underflows to ±0
		}
		// Subnormal: shift the implicit leading bit into the mantissa.
		man |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		m := man >> shift
		if man&half != 0 && (man&(half-1) != 0 || m&1 != 0) {
			m++ // round to nearest, ties to even
		}
		return sign | uint16(m)
	}
	m := man >> 13
	if man&0x1000 != 0 && (man&0xFFF != 0 || m&1 != 0) {
		m++
		if m == 0x400 { // mantissa overflow carries into the exponent
			m = 0
			exp++
			if exp >= 0x1F {
				return sign | 0x7C00
			}
		}
	}
	return sign | uint16(exp)<<10 | uint16(m)
}

// DecodeFloat16 converts IEEE 754 binary16 bits to the exactly-representable
// fp32 value. The normal-number path is kept small enough to inline —
// attention decodes two parameters per (token, kv-head) slice per page visit,
// so a call here sits on the decode hot path.
func DecodeFloat16(h uint16) float32 {
	if e := h & 0x7C00; e != 0 && e != 0x7C00 {
		return math.Float32frombits(uint32(h&0x8000)<<16 | (uint32(e>>10)+127-15)<<23 | uint32(h&0x3FF)<<13)
	}
	return decodeFloat16Edge(h)
}

// decodeFloat16Edge handles the zero / subnormal / Inf / NaN encodings.
func decodeFloat16Edge(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	man := uint32(h & 0x3FF)
	if exp == 0x1F {
		return math.Float32frombits(sign | 0x7F800000 | man<<13)
	}
	if man == 0 {
		return math.Float32frombits(sign)
	}
	// Subnormal: renormalize into the fp32 format.
	e := uint32(127 - 15 + 1)
	for man&0x400 == 0 {
		man <<= 1
		e--
	}
	return math.Float32frombits(sign | e<<23 | (man&0x3FF)<<13)
}

// QuantEncode uniform-quantizes one head slice x into codes (len(x)*bits/8
// bytes) and its (lo, delta) float16 pair, as quantEncodeGo specifies. On the
// AVX-512 arm an 8-bit slice of whole 16-float vectors, finite and below 2^15
// in magnitude, is encoded by encodeQ8AVX512, equal to it by bits.
func QuantEncode(codes []uint8, params []uint16, x []float32, bits int) {
	if arm == armAVX512 && bits == 8 && len(x) > 0 && len(x)%16 == 0 {
		_, _ = codes[len(x)-1], params[1]
		if encodeQ8AVX512(&codes[0], &params[0], &x[0], len(x)/16) {
			return
		}
	}
	quantEncodeGo(codes, params, x, bits)
}

// quantEncodeGo is the encoder's specification. lo and hi are the slice's
// first minimum and first maximum; codes are computed against the
// float16-decoded parameters — the exact values every reader reconstructs
// with — so encode and decode agree bit-for-bit: c = round((x−lo)/Δ), half
// away from zero, clamped to [0, 2^bits−1]. A constant slice (or one whose
// range underflows float16) stores delta = 0 and all-zero codes, dequantizing
// to lo, exactly like quant.Uniform.
func quantEncodeGo(codes []uint8, params []uint16, x []float32, bits int) {
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	loBits := EncodeFloat16(lo)
	loD := DecodeFloat16(loBits)
	maxCode := float32(int(1)<<bits - 1)
	dBits := EncodeFloat16((hi - loD) / maxCode)
	dD := DecodeFloat16(dBits)
	if !(dD > 0) {
		params[0], params[1] = loBits, 0
		clear(codes)
		return
	}
	params[0], params[1] = loBits, dBits
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
	if bits == 8 {
		for j, v := range x {
			codes[j] = encode(v)
		}
		return
	}
	for j := 0; j < len(x); j += 2 {
		codes[j>>1] = encode(x[j]) | encode(x[j+1])<<4
	}
}

// codeAt returns element e of codes bits wide: byte e at 8 bits; at 4 bits
// nibble e, two per byte, low nibble first.
func codeAt(codes []uint8, bits, e int) uint8 {
	if bits == 8 {
		return codes[e]
	}
	return codes[e>>1] >> (4 * (e & 1)) & 0x0F
}

// setCode stores c as element e of codes bits wide (codeAt's layout).
func setCode(codes []uint8, bits, e int, c uint8) {
	if bits == 8 {
		codes[e] = c
		return
	}
	sh := 4 * (e & 1)
	codes[e>>1] = codes[e>>1]&^(0x0F<<sh) | c<<sh
}

// SealF32 re-lays one KV head's rows of a full page — a multiple of 16 token
// rows of d floats, d apart — in place as sealed rows (SealedAt: every 16
// tokens one dim-major panel), copying them through scratch (as long as
// rows). Data movement only, relay's.
func SealF32(rows, scratch []float32, d int) {
	copy(scratch, rows)
	for s := 0; s < len(rows); s += panelWidth * d {
		relay(rows[s:], scratch[s:], d, d)
	}
}

// SealCodes is SealF32 over codes bits wide: every code moves, none is
// re-quantized, and the (lo, Δ) pairs stay one per token row. On the AVX-512
// arm 8-bit panels of whole 16-dimension blocks move by sealQ8AVX512.
func SealCodes(codes, scratch []uint8, bits, d int) {
	copy(scratch, codes)
	pb := panelWidth * d * bits / 8 // bytes per panel
	for s := 0; s < len(codes); s += pb {
		src, dst := scratch[s:s+pb], codes[s:s+pb]
		if bits == 8 && zmmPanels(d) {
			sealQ8AVX512(&dst[0], &src[0], d/panelWidth)
			continue
		}
		if bits == 8 {
			for t := 0; t < panelWidth; t++ {
				for j, c := range src[t*d : (t+1)*d] {
					dst[j*panelWidth+t] = c
				}
			}
			continue
		}
		for j := 0; j < d; j++ { // tokens 2i and 2i+1 of dimension j share a byte
			sh := 4 * (j & 1)
			for i := 0; i < panelWidth/2; i++ {
				lo, hi := src[i*d+j/2]>>sh&0x0F, src[i*d+d/2+j/2]>>sh&0x0F
				dst[j*panelWidth/2+i] = lo | hi<<4
			}
		}
	}
}

// UnsealF32 copies the first tokens tokens of one KV head's sealed fp32 rows
// src into token rows d apart at the start of dst: SealF32 undone for a head
// of the page.
func UnsealF32(dst, src []float32, tokens, d int) {
	for e := 0; e < tokens*d; e++ {
		dst[e] = src[SealedAt(e/d, e%d, d)]
	}
}

// UnsealCodes is UnsealF32 over codes bits wide, SealCodes undone.
func UnsealCodes(dst, src []uint8, bits, tokens, d int) {
	for e := 0; e < tokens*d; e++ {
		setCode(dst, bits, e, codeAt(src, bits, SealedAt(e/d, e%d, d)))
	}
}
