package tensor

import (
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
// a quantized page to dequantizing each token into a scratch buffer and
// calling Dot / AXPY on it.
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
				rows := Rows{Codes: codes, Params: params, Bits: bits, Off: head * d, Stride: stride, Heads: heads, Head: head}
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
						DequantSliceInto(scratch, codes, params, bits, rows.Off, stride, heads, head, i)
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
						DequantSliceInto(scratch, codes, params, bits, rows.Off, stride, heads, head, i)
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
			rows := Rows{F32: make([]float32, tokens*stride)[d:], Stride: stride}
			if bits != 0 {
				codes, params := buildQuantPage(r, tokens, stride, heads, bits)
				rows = Rows{Codes: codes, Params: params, Bits: bits, Off: d, Stride: stride, Heads: heads, Head: 1}
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
