package quant

import (
	"math"
	"testing"
	"testing/quick"

	"rethinkkv/internal/rng"
)

func randVec(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestUniformRoundTripBound(t *testing.T) {
	r := rng.New(1)
	for _, bits := range []int{2, 4, 8} {
		u := Uniform{Bits: bits}
		xs := randVec(r, 256)
		q := u.Quantize(xs)
		rec := q.Dequantize(nil)
		bound := q.MaxAbsError() + 1e-6
		for i := range xs {
			if math.Abs(float64(xs[i]-rec[i])) > bound {
				t.Fatalf("bits=%d: |err| %v exceeds Δ/2 %v", bits, math.Abs(float64(xs[i]-rec[i])), bound)
			}
		}
	}
}

func TestUniformMoreBitsLessError(t *testing.T) {
	r := rng.New(2)
	xs := randVec(r, 512)
	mse2 := MSE(xs, Uniform{Bits: 2}.Quantize(xs))
	mse4 := MSE(xs, Uniform{Bits: 4}.Quantize(xs))
	mse8 := MSE(xs, Uniform{Bits: 8}.Quantize(xs))
	if !(mse2 > mse4 && mse4 > mse8) {
		t.Fatalf("MSE not decreasing with bits: %v, %v, %v", mse2, mse4, mse8)
	}
}

func TestUniformConstantVectorExact(t *testing.T) {
	xs := []float32{3.5, 3.5, 3.5}
	q := Uniform{Bits: 2}.Quantize(xs)
	rec := q.Dequantize(nil)
	for _, v := range rec {
		if v != 3.5 {
			t.Fatalf("constant vector not exact: %v", rec)
		}
	}
}

func TestUniformExtremesPreserved(t *testing.T) {
	xs := []float32{-7, 0, 7}
	q := Uniform{Bits: 4}.Quantize(xs)
	rec := q.Dequantize(nil)
	if math.Abs(float64(rec[0]+7)) > 1e-5 || math.Abs(float64(rec[2]-7)) > 1e-5 {
		t.Fatalf("min/max not preserved: %v", rec)
	}
}

func TestUniformPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Uniform{Bits: 9}.Quantize([]float32{1})
}

func TestQuickUniformErrorBound(t *testing.T) {
	f := func(seed uint64, rawBits uint8) bool {
		bits := int(rawBits)%8 + 1
		r := rng.New(seed)
		xs := randVec(r, 64)
		q := Uniform{Bits: bits}.Quantize(xs)
		rec := q.Dequantize(nil)
		for i := range xs {
			if math.Abs(float64(xs[i]-rec[i])) > q.MaxAbsError()+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupQuantizeGranularities(t *testing.T) {
	r := rng.New(3)
	vecs := make([][]float32, 8)
	for i := range vecs {
		vecs[i] = randVec(r, 16)
	}
	for _, gran := range []Granularity{PerToken, PerChannel} {
		g := QuantizeGroup(vecs, gran, 4)
		rec := g.Dequantize()
		if len(rec) != 8 || len(rec[0]) != 16 {
			t.Fatalf("%v: bad shape", gran)
		}
		if mse := GroupMSE(vecs, g); mse > 0.05 {
			t.Fatalf("%v: mse %v too high", gran, mse)
		}
	}
}

func TestPerChannelBeatsPerTokenOnChannelOutliers(t *testing.T) {
	// Key tensors have channel-aligned outliers; per-channel quantisation
	// isolates them — this is KIVI's core design claim.
	r := rng.New(4)
	vecs := make([][]float32, 16)
	for i := range vecs {
		vecs[i] = randVec(r, 16)
		vecs[i][3] = vecs[i][3]*0.1 + 40 // channel 3 carries a large offset
	}
	mseTok := GroupMSE(vecs, QuantizeGroup(vecs, PerToken, 2))
	mseCh := GroupMSE(vecs, QuantizeGroup(vecs, PerChannel, 2))
	if mseCh >= mseTok {
		t.Fatalf("per-channel mse %v should beat per-token %v on channel outliers", mseCh, mseTok)
	}
}

func TestGranularityString(t *testing.T) {
	if PerToken.String() != "per-token" || PerChannel.String() != "per-channel" {
		t.Fatal("granularity names wrong")
	}
	if Granularity(9).String() == "" {
		t.Fatal("unknown granularity should still print")
	}
}

func TestStorageBitsAccounting(t *testing.T) {
	xs := make([]float32, 100)
	q := Uniform{Bits: 4}.Quantize(xs)
	if got := q.StorageBits(4); got != 100*4+32 {
		t.Fatalf("storage bits = %d", got)
	}
	r := rng.New(5)
	vecs := [][]float32{randVec(r, 8), randVec(r, 8)}
	g := QuantizeGroup(vecs, PerToken, 2)
	if got := g.StorageBits(); got != 2*(8*2+32) {
		t.Fatalf("group storage bits = %d", got)
	}
}

// The reconstruction-error references the codec tests compare against.

// MaxAbsError returns the theoretical worst-case reconstruction error,
// Delta/2.
func (q Quantized) MaxAbsError() float64 { return float64(q.Delta) / 2 }

// MSE returns the mean squared reconstruction error against the original.
func MSE(orig []float32, q Quantized) float64 {
	rec := q.Dequantize(nil)
	if len(rec) != len(orig) {
		panic("quant: MSE length mismatch")
	}
	var s float64
	for i := range orig {
		d := float64(orig[i] - rec[i])
		s += d * d
	}
	return s / float64(len(orig))
}

// GroupMSE returns the mean squared reconstruction error over the group.
func GroupMSE(orig [][]float32, g GroupQuantized) float64 {
	rec := g.Dequantize()
	var s float64
	var n int
	for t := range orig {
		for c := range orig[t] {
			d := float64(orig[t][c] - rec[t][c])
			s += d * d
			n++
		}
	}
	return s / float64(n)
}
