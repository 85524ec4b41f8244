package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"rethinkkv/internal/rng"
)

// polarMath is the expression model.New historically drew every weight with,
// given the accepted pair NormFloat64 drew it from.
func polarMath(u, s float64, scale float32) float32 {
	return float32(u*math.Sqrt(-2*math.Log(s)/s)) * scale
}

// checkNormals asserts that the selected arm of NormalsInto computes normal32
// on every element — run it under eachArm — and, on amd64, that normal32 is
// the historical expression, whose math.Log is the assembly it spells out.
func checkNormals(t *testing.T, u, s []float64, scale float32) {
	t.Helper()
	want := make([]float32, len(u))
	for i := range u {
		want[i] = normal32(u[i], s[i], scale)
	}
	got := make([]float32, len(u))
	NormalsInto(got, u, s, scale)
	sameFloats(t, fmt.Sprintf("n=%d arm=%s NormalsInto", len(u), armNames[arm]), got, want)
	if runtime.GOARCH != "amd64" {
		return
	}
	for i := range u {
		got[i] = polarMath(u[i], s[i], scale)
	}
	sameFloats(t, fmt.Sprintf("n=%d normal32 vs math", len(u)), want, got)
}

// TestNormalsMatchMath pins the transform on the inputs that can go wrong:
// f1 = √2/2 exactly (s = √2/2 and its binades, where archLog adjusts and
// pure-Go math.log does not), the smallest accepted s a pair can reach
// (u = ±2⁻⁵², v = 0), the largest s below 1, u = ±0, subnormal s, a strided
// sweep of every s bit pattern in (0, 1), and 65 539 pairs rng.Polar draws —
// every arm against normal32, and normal32 against the historical expression
// on amd64.
func TestNormalsMatchMath(t *testing.T) {
	hSqrt2 := math.Float64frombits(0x3FE6A09E667F3BCD)
	if hSqrt2 != logHSqrt2 {
		t.Fatalf("√2/2 is %#x, want 0x3FE6A09E667F3BCD", math.Float64bits(logHSqrt2))
	}
	var u, s []float64
	add := func(uu, ss float64) { u, s = append(u, uu), append(s, ss) }
	for _, ss := range []float64{hSqrt2, hSqrt2 / 2, hSqrt2 / 1024, math.Ldexp(hSqrt2, -60),
		math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1),
		0x1p-104, math.Nextafter(1, 0), 0.5, math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022} {
		for _, uu := range []float64{0.3, -0.3, 0, math.Copysign(0, -1), 0x1p-52, math.Nextafter(1, 0), -math.Nextafter(1, 0)} {
			add(uu, ss)
		}
	}
	const stride = 0x3FEFFFFFFFFFFFFF / 40009
	for b := uint64(1); b < 0x3FF0000000000000; b += stride {
		add(float64(int64(b%2001)-1000)/1001, math.Float64frombits(b))
	}
	pu, ps := make([]float64, 65539), make([]float64, 65539)
	rng.New(20250927).Polar(pu, ps)
	u, s = append(u, pu...), append(s, ps...)
	eachArm(t, func(t *testing.T) {
		for _, scale := range []float32{1, 0.0625, float32(1 / math.Sqrt(1024))} {
			for _, n := range []int{len(u), 1, 7, 8, 9, 15, 16, 17} {
				checkNormals(t, u[:n], s[:n], scale)
				checkNormals(t, u[len(u)-n:], s[len(s)-n:], scale)
			}
		}
	})
}

// fuzzPolarPairs reads n (u, s) pairs out of raw, cycling through it: the
// magnitude bits of u folded into (−1, 1), its sign kept, and s's bits
// folded into (0, 1) — subnormals included.
func fuzzPolarPairs(raw []byte, n int) (u, s []float64) {
	u, s = make([]float64, n), make([]float64, n)
	word := func(i int) uint64 {
		var b [8]byte
		for j := range b {
			if len(raw) > 0 {
				b[j] = raw[(8*i+j)%len(raw)]
			}
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	for i := range u {
		ub, sb := word(2*i), word(2*i+1)
		u[i] = math.Float64frombits(ub&(1<<63) | ub&^(1<<63)%0x3FF0000000000000)
		s[i] = math.Float64frombits(1 + sb%(0x3FF0000000000000-1))
	}
	return u, s
}

// FuzzPolarMatchesMath lets the fuzzer pick raw bits for u ∈ (−1, 1),
// s ∈ (0, 1) and the float32 scale, and a length in 0–40 (every ragged tail
// after 0–5 groups of eight): every arm of NormalsInto must match normal32
// bit for bit, and normal32 the historical float32(u·√(−2·ln s / s))·scale
// on amd64.
func FuzzPolarMatchesMath(f *testing.F) {
	f.Add([]byte{0xcd, 0x3b, 0x7f, 0x66, 0x9e, 0xa0, 0xe6, 0x3f}, uint8(8), math.Float32bits(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0x70, 0x39}, uint8(19), math.Float32bits(0.0625))
	f.Add([]byte{0x17, 0xac, 0xae, 0xc2, 0x4f, 0xc0, 0xb0, 0x42, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x3f}, uint8(40), math.Float32bits(0.03125))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, scale uint32) {
		u, s := fuzzPolarPairs(raw, int(n)%41)
		eachArm(t, func(t *testing.T) { checkNormals(t, u, s, math.Float32frombits(scale)) })
	})
}

func TestNormalsIntoPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NormalsInto(make([]float32, 3), make([]float64, 3), make([]float64, 2), 1)
}

// BenchmarkNormals prices the transform alone, per element, under each arm:
// the cost model.New pays per weight on top of rng.Polar's pair.
func BenchmarkNormals(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	const n = 1024
	u, s, dst := make([]float64, n), make([]float64, n), make([]float32, n)
	rng.New(1).Polar(u, s)
	for level, name := range armNames {
		if armLevel(level) > selected {
			continue
		}
		b.Run(name, func(b *testing.B) {
			arm = armLevel(level)
			for b.Loop() {
				NormalsInto(dst, u, s, 0.0625)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

// TestLog64IsArchLog pins log64 to amd64's math.Log by float64 bits — the
// float32 rounding at the end of normal32 hides most one-ulp slips in the
// logarithm — at f1 = √2/2 in several binades and in a subnormal (where
// archLog's not-less-than adjustment and pure-Go math.log's less-than part
// ways; both reductions happen to round to the same bits there), its
// neighbours, the ends of (0, 1), subnormals, a strided sweep of every
// positive finite bit pattern, 2¹⁸ uniforms in [0, 1) (a fused product in
// the polynomial shows in about one in a thousand) and 2¹⁶ accepted s.
func TestLog64IsArchLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("log64 specifies amd64's math.Log")
	}
	xs := []float64{math.Float64frombits(0x0006A09E667F3BCD), math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, 0x1p-104, 0.5, math.Nextafter(1, 0), 1, 2, math.MaxFloat64}
	for _, e := range []int{0, -1, -10, -60, 1, 5} {
		h := math.Ldexp(logHSqrt2, e)
		xs = append(xs, h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)))
	}
	const stride = 0x7FEFFFFFFFFFFFFF / 200003
	for b := uint64(1); b < 0x7FF0000000000000; b += stride {
		xs = append(xs, math.Float64frombits(b))
	}
	r := rng.New(5)
	for range 1 << 18 {
		xs = append(xs, r.Float64())
	}
	pu, ps := make([]float64, 1<<16), make([]float64, 1<<16)
	r.Polar(pu, ps)
	xs = append(xs, ps...)
	for _, x := range xs {
		if got, want := log64(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("log64(%v) = %v (%#x), math.Log %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
