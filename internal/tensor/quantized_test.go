package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestFloat16RoundTrip(t *testing.T) {
	// Exactly representable values survive the round trip bit-for-bit.
	exact := []float32{0, 1, -1, 0.5, -2.25, 65504, -65504, 6.103515625e-05, 5.960464477539063e-08}
	for _, v := range exact {
		if got := DecodeFloat16(EncodeFloat16(v)); got != v {
			t.Errorf("round trip %g: got %g", v, got)
		}
	}
	if DecodeFloat16(EncodeFloat16(70000)) != float32(math.Inf(1)) {
		t.Errorf("overflow should saturate to +Inf")
	}
	if DecodeFloat16(EncodeFloat16(1e-9)) != 0 {
		t.Errorf("tiny value should flush to zero")
	}
	if v := DecodeFloat16(EncodeFloat16(float32(math.NaN()))); !math.IsNaN(float64(v)) {
		t.Errorf("NaN should survive as NaN, got %g", v)
	}
	// Round-to-nearest-even at the half-ULP boundary: 2049 sits exactly
	// between representable 2048 and 2050 and must round to the even 2048.
	if got := DecodeFloat16(EncodeFloat16(2049)); got != 2048 {
		t.Errorf("RNE tie: want 2048, got %g", got)
	}
	if got := DecodeFloat16(EncodeFloat16(2051)); got != 2052 {
		t.Errorf("RNE tie: want 2052, got %g", got)
	}
	// General values land within half a binary16 ULP.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := float32(r.NormFloat64())
		got := DecodeFloat16(EncodeFloat16(v))
		if rel := math.Abs(float64(got-v)) / math.Max(math.Abs(float64(v)), 1e-10); rel > 1.0/1024 {
			t.Fatalf("decode(encode(%g)) = %g, relative error %g", v, got, rel)
		}
	}
}

// buildQuantPage fabricates one packed page directly (codes random, params
// random fp16-representable) so kernel tests do not depend on any encoder.
func buildQuantPage(r *rand.Rand, tokens, stride, heads, bits int) (codes []uint8, params []uint16) {
	switch bits {
	case 8:
		codes = make([]uint8, tokens*stride)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
	case 4:
		codes = make([]uint8, tokens*stride/2)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
	}
	params = make([]uint16, tokens*heads*2)
	for i := 0; i < len(params); i += 2 {
		params[i] = EncodeFloat16(float32(r.NormFloat64()))
		params[i+1] = EncodeFloat16(float32(math.Abs(r.NormFloat64()) * 0.1))
	}
	return codes, params
}

// TestQuantStridedKernelsMatchScratchBuffer pins the block's two passes over
// a quantized page (head-major: each head's token rows d apart) to
// dequantizing each token into a scratch buffer and calling Dot / AXPY on it.
func TestQuantStridedKernelsMatchScratchBuffer(t *testing.T) {
	const (
		tokens = 16
		heads  = 2
		d      = 16
		stride = heads * d
	)
	r := rand.New(rand.NewSource(11))
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	eachArm(t, func(t *testing.T) {
		for _, bits := range []int{8, 4} {
			codes, params := buildQuantPage(r, tokens, stride, heads, bits)
			for head := 0; head < heads; head++ {
				rows := Rows{Codes: codes[head*tokens*d*bits/8:], Params: params[2*head*tokens:], Bits: bits, HeadStride: tokens * d}
				for _, n := range []int{1, 3, tokens} { // partial pages included
					fastOut := make([]float32, d)
					slowOut := make([]float32, d)
					for j := 0; j < d; j++ {
						fastOut[j] = float32(j) * 0.25
						slowOut[j] = float32(j) * 0.25
					}
					b := oneQuery(q, fastOut, n)
					b.Score(0, n, &rows)
					fast := b.Weights(0, n)
					slow := make([]float32, n)
					scratch := make([]float32, d)
					for i := 0; i < n; i++ {
						rows.TokenInto(scratch, 0, i)
						slow[i] = Dot(q, scratch)
					}
					for i := range slow {
						if fast[i] != slow[i] {
							t.Fatalf("bits=%d head=%d n=%d: block score[%d]=%g, scratch path %g",
								bits, head, n, i, fast[i], slow[i])
						}
					}

					for i := range fast {
						fast[i] = float32(r.Float64())
					}
					b.Accumulate(0, n, &rows)
					for i := 0; i < n; i++ {
						rows.TokenInto(scratch, 0, i)
						AXPY(slowOut, fast[i], scratch)
					}
					for j := range fastOut {
						if fastOut[j] != slowOut[j] {
							t.Fatalf("bits=%d head=%d n=%d: block output[%d]=%g, scratch path %g",
								bits, head, n, j, fastOut[j], slowOut[j])
						}
					}
				}
			}
		}
	})
}

// TestQuantStridedKernelsZeroAlloc pins a page visit — both passes, every
// codec, a GQA group of two — at 0 allocations under every arm.
func TestQuantStridedKernelsZeroAlloc(t *testing.T) {
	const (
		tokens = 16
		heads  = 2
		d      = 16
		stride = heads * d
	)
	r := rand.New(rand.NewSource(3))
	b := NewAttnBlock(d, tokens)
	b.Add(tokens, make([]float32, d))
	b.Add(tokens, make([]float32, d))
	eachArm(t, func(t *testing.T) {
		for _, bits := range []int{0, 8, 4} {
			rows := Rows{F32: make([]float32, tokens*stride)[tokens*d:], HeadStride: tokens * d}
			if bits != 0 {
				codes, params := buildQuantPage(r, tokens, stride, heads, bits)
				rows = Rows{Codes: codes[tokens*d*bits/8:], Params: params[2*tokens:], Bits: bits, HeadStride: tokens * d}
			}
			if n := testing.AllocsPerRun(100, func() {
				b.Score(0, tokens, &rows)
				b.Accumulate(0, tokens, &rows)
			}); n != 0 {
				t.Fatalf("bits=%d: block kernels allocated %.1f per run, want 0", bits, n)
			}
		}
	})
}

// TestFloat16DecodeEncodeExhaustive round-trips every non-NaN binary16
// encoding — zeros, subnormals, normals and infinities of both signs —
// through DecodeFloat16 and back, bit for bit.
func TestFloat16DecodeEncodeExhaustive(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		if h&0x7C00 == 0x7C00 && h&0x3FF != 0 {
			continue // NaN payloads are not preserved
		}
		if got := EncodeFloat16(DecodeFloat16(uint16(h))); got != uint16(h) {
			t.Fatalf("EncodeFloat16(DecodeFloat16(%#04x)) = %#04x", h, got)
		}
	}
}

// FuzzEncodeFloat16Nearest checks EncodeFloat16 on raw float32 bits against
// its definition: NaN stays NaN, the sign is kept, magnitudes from 65520
// (65504 plus half its ULP, where the tie goes to the even Inf) become ±Inf,
// and any other value encodes to the binary16 nearest it in float64 — no
// closer than either neighbouring encoding, and the even one on a tie.
func FuzzEncodeFloat16Nearest(f *testing.F) {
	for _, v := range []float32{0, 1, 2049, 2051, 65504, 65519, 65520, 1e-9, 0x1p-25, 0x1p-24, 0x1.8p-25, 6.1e-05} {
		f.Add(math.Float32bits(v))
		f.Add(math.Float32bits(-v))
	}
	f.Add(uint32(0x7FC00001)) // NaN
	f.Add(uint32(0x7F800000)) // +Inf
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		h := EncodeFloat16(x)
		isNaN := h&0x7C00 == 0x7C00 && h&0x3FF != 0
		if math.IsNaN(float64(x)) {
			if !isNaN {
				t.Fatalf("EncodeFloat16(NaN %#08x) = %#04x, not a NaN", bits, h)
			}
			return
		}
		if isNaN || h&0x8000 != uint16(bits>>16)&0x8000 {
			t.Fatalf("EncodeFloat16(%g) = %#04x: NaN or wrong sign", x, h)
		}
		v, mag := math.Abs(float64(x)), h&0x7FFF
		if v >= 65520 {
			if mag != 0x7C00 {
				t.Fatalf("EncodeFloat16(%g) = %#04x, want ±Inf", x, h)
			}
			return
		}
		if mag >= 0x7C00 {
			t.Fatalf("EncodeFloat16(%g) = %#04x overflowed", x, h)
		}
		dist := func(m uint16) float64 { return math.Abs(v - float64(DecodeFloat16(m))) }
		d := dist(mag)
		for _, n := range []uint16{mag - 1, mag + 1} {
			if n > 0x7BFF { // below zero, or past the largest finite value
				continue
			}
			switch dn := dist(n); {
			case dn < d:
				t.Fatalf("EncodeFloat16(%g) = %#04x (%g), but %#04x (%g) is nearer",
					x, h, DecodeFloat16(mag), n, DecodeFloat16(n))
			case dn == d && mag&1 != 0:
				t.Fatalf("EncodeFloat16(%g) = %#04x on a tie with %#04x, want the even encoding", x, h, n)
			}
		}
	})
}

// TestInt8ParamsExhaustive pins the attention block's parameter decoder —
// VCVTPH2PS over one masked load on the AVX-512 arm — to DecodeFloat16 over
// every non-NaN binary16 encoding, bit for bit, under every arm: the halves
// are head 1's (lo, Δ) pairs of a two-head page (head 0's pairs before them
// and the slots past them hold NaNs, which must not be read), decoded 1 to 16
// tokens at a time, every lod slot past the tokens +0.
func TestInt8ParamsExhaustive(t *testing.T) {
	var halves []uint16
	for h := 0; h <= 0xFFFF; h++ {
		if h&0x7C00 != 0x7C00 || h&0x3FF == 0 {
			halves = append(halves, uint16(h))
		}
	}
	tokens := len(halves) / 2
	params := make([]uint16, 4*tokens+2*panelWidth)
	for i := range params {
		params[i] = 0x7E01
	}
	copy(params[2*tokens:], halves[:2*tokens])
	r := Rows{Params: params, Bits: 8, HeadStride: 16 * tokens}
	eachArm(t, func(t *testing.T) {
		b := NewAttnBlock(16, 16)
		for t0, n := 0, 1; t0 < tokens; t0, n = t0+n, n%16+1 {
			tt := min(n, tokens-t0)
			if tt < 16 {
				b.lod[1][2*tt] = 1 // a slot past the tokens must be cleared
			}
			b.int8Params(&r, t0, tt, 1)
			for j, got := range b.lod[1] {
				want := float32(0)
				if j < 2*tt {
					want = DecodeFloat16(halves[2*t0+j])
				}
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("tokens [%d, %d): lod[%d] = %#08x, want %#08x", t0, t0+tt, j, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	})
}

// checkQuantEncode encodes x at bits through QuantEncode under the current arm
// and through the specification, and asserts identical codes and parameters.
func checkQuantEncode(t *testing.T, x []float32, bits int) {
	t.Helper()
	n := len(x) * bits / 8
	codes, params := make([]uint8, n), make([]uint16, 2)
	wantC, wantP := make([]uint8, n), make([]uint16, 2)
	for i := range codes {
		codes[i] = 0xA5 // every byte must be written
	}
	QuantEncode(codes, params, x, bits)
	quantEncodeGo(wantC, wantP, x, bits)
	if params[0] != wantP[0] || params[1] != wantP[1] {
		t.Fatalf("bits=%d x=%v: params (%#04x, %#04x), spec (%#04x, %#04x)", bits, x, params[0], params[1], wantP[0], wantP[1])
	}
	for i := range codes {
		if codes[i] != wantC[i] {
			t.Fatalf("bits=%d x=%v: code %d is %d, spec %d", bits, x, i, codes[i], wantC[i])
		}
	}
}

// quantEncodeSeeds are slices the encoder must get right: a constant slice, a
// range that underflows fp16 (Δ encodes to 0), positive and negative slices
// whose values sit exactly half-way between codes (Δ = 1/16: ties round away
// from zero), ±0 minima in either
// order (the first one is kept, and its sign is stored), a minimum that
// rounds to a subnormal half, and one of magnitude past 2^15 (the
// specification's own path).
func quantEncodeSeeds() [][]float32 {
	negZero := float32(math.Copysign(0, -1))
	ramp := func(n int, f func(i int) float32) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	tie := func(i int) float32 { // lo = 0, hi = 255/16, the rest at (m + ½)/16
		if i < 2 {
			return float32(i) * 255 / 16
		}
		return (float32(i*7%254) + 0.5) / 16
	}
	return [][]float32{
		ramp(32, func(int) float32 { return 1.3 }),
		ramp(16, func(i int) float32 { return 1 + float32(i)*1e-7 }),
		ramp(32, func(i int) float32 { return float32(i) - 15.5 }),
		ramp(32, tie),
		ramp(32, func(i int) float32 { return -tie(i) }),
		ramp(32, func(i int) float32 { return [...]float32{0, negZero, 3}[i%3] }),
		ramp(32, func(i int) float32 { return [...]float32{negZero, 0, 3}[i%3] }),
		ramp(16, func(i int) float32 { return 3e-6 + float32(i)*1e-7 }),
		ramp(16, func(i int) float32 { return float32(i) * 3000 }),
		ramp(48, func(i int) float32 { return float32(math.Sin(float64(i))) }),
	}
}

// TestQuantEncodeMatchesSpec pins QuantEncode to quantEncodeGo on the seed
// slices at 8 and 4 bits, then on generated slices of 16–64 values at scales
// from 2^-30 to 2^14 with ±0, subnormals and repeated values planted, under
// every arm.
func TestQuantEncodeMatchesSpec(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, x := range quantEncodeSeeds() {
			checkQuantEncode(t, x, 8)
			checkQuantEncode(t, x, 4)
		}
		next := lcg(31)
		planted := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3e-42, 1, -1}
		for i := 0; i < 2000; i++ {
			x := make([]float32, 16*(1+int(next()%4)))
			scale := float32(math.Ldexp(1, int(next()%45)-30))
			for j := range x {
				switch v := next(); {
				case v%11 == 0:
					x[j] = planted[next()%uint64(len(planted))]
				case v%11 == 1 && j > 0:
					x[j] = x[j-1]
				default:
					x[j] = float32(int64(v%2001)-1000) / 1000 * scale
				}
			}
			checkQuantEncode(t, x, 8)
			checkQuantEncode(t, x, 4)
		}
	})
}

// FuzzQuantEncodeMatchesSpec checks QuantEncode against the specification on
// raw float32 bits — NaN, ±Inf, subnormals and ±0 included — over 16, 32 or 48
// values (the 8-bit kernel's vectors) at 8 bits, and an even count at 4 bits.
func FuzzQuantEncodeMatchesSpec(f *testing.F) {
	for _, x := range quantEncodeSeeds() {
		raw := make([]byte, 4*len(x))
		for i, v := range x {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		f.Add(raw, uint8(8))
	}
	f.Fuzz(func(t *testing.T, raw []byte, bits uint8) {
		n := len(raw) / 4
		b := 4
		if bits%2 == 0 {
			b, n = 8, n&^15
		}
		if n == 0 || n > 48 {
			return
		}
		x := make([]float32, n&^1)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(x) == 0 {
			return
		}
		eachArm(t, func(t *testing.T) { checkQuantEncode(t, x, b) })
	})
}

// BenchmarkQuantEncode prices encoding one 32-float head slice — the benchmark
// model's — at 8 bits under each arm, with the 4-bit encoder beside it.
func BenchmarkQuantEncode(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	x := benchLanes(1, 32)[0]
	codes, params := make([]uint8, 32), make([]uint16, 2)
	for level, name := range armNames {
		if armLevel(level) > selected {
			continue
		}
		for _, bits := range []int{8, 4} {
			b.Run(fmt.Sprintf("%s/int%d", name, bits), func(b *testing.B) {
				arm = armLevel(level)
				for b.Loop() {
					QuantEncode(codes, params, x, bits)
				}
			})
		}
	}
}
