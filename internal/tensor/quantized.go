package tensor

import "math"

// This file is the codec of quantized KV pages: the fp16 parameter codec, the
// encoder (QuantEncode) and the dequantizer (DequantSliceInto). A page stores
// uniform-quantized codes (8-bit, or 4-bit packed two per byte) token-major
// at the same stride as the fp32 layout, plus one (lo, delta) float16
// parameter pair per (token, kv-head) slice. An element dequantizes as
// x = float32(code)*delta + lo, the exact arithmetic of internal/quant's
// Uniform dequantizer. Attention reads a page 16 tokens of one head at a time
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

// DequantSliceInto writes the dequantized head slice of one entry into dst —
// the scalar reference the attention block's dequantizer is pinned against,
// and the primitive the generic (slice-of-slices) cache read path uses.
// Entry i's codes for the requested head live at element offset i*stride+off
// (off = head*len(dst)); its (lo, delta) float16 pair sits at
// params[(i*heads+head)*2]. bits must be 8, or 4 with codes packed two per
// byte (low nibble first; off and len(dst) must then be even, which RoPE's
// even head dimension guarantees). The product is rounded before lo is added
// — two roundings, the explicit conversion keeping any build from fusing them.
func DequantSliceInto(dst []float32, codes []uint8, params []uint16, bits, off, stride, heads, head, i int) {
	d := len(dst)
	p := (i*heads + head) * 2
	lo := DecodeFloat16(params[p])
	dlt := DecodeFloat16(params[p+1])
	switch bits {
	case 8:
		base := i*stride + off
		row := codes[base : base+d : base+d]
		for j := range dst {
			dst[j] = float32(float32(row[j])*dlt) + lo
		}
	case 4:
		base := (i*stride + off) >> 1
		row := codes[base : base+d/2 : base+d/2]
		for j := 0; j < d; j += 2 {
			b := row[j>>1]
			dst[j] = float32(float32(b&0x0F)*dlt) + lo
			dst[j+1] = float32(float32(b>>4)*dlt) + lo
		}
	default:
		panic("tensor: dequantsliceinto unsupported bit width")
	}
}
