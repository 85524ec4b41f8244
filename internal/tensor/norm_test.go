package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// rmsNormAscending is RMSNormInto with its sum of squares as one ascending
// chain — the order the norm used before its sixteen chains, and the scalar
// row of BenchmarkRMSNorm.
func rmsNormAscending(dst, x, gain []float32, eps float32) {
	var ss float32
	for _, v := range x {
		ss += float32(v * v)
	}
	rmsNormScale(dst, x, gain, eps, ss)
}

// rmsNormScale is RMSNormInto's scale pass from a given sum of squares.
func rmsNormScale(dst, x, gain []float32, eps, ss float32) {
	inv := 1 / float32(math.Sqrt(float64(ss/float32(len(x))+eps)))
	for i := range x {
		dst[i] = x[i] * inv * gain[i]
	}
}

// chainSums returns sumSquares' sixteen chains, written out: chain j over
// i = j, j+16, j+32, … from +0.
func chainSums(x []float32) [16]float32 {
	var c [16]float32
	for j := range c {
		for i := j; i < len(x); i += 16 {
			c[j] += float32(x[i] * x[i])
		}
	}
	return c
}

// normSumRef is sumSquares' order written out longhand: the sixteen chains,
// then the tree's four levels — chain j with chain j+8, then j+4, j+2, j+1.
func normSumRef(x []float32) float32 {
	c := chainSums(x)
	l8 := [8]float32{c[0] + c[8], c[1] + c[9], c[2] + c[10], c[3] + c[11],
		c[4] + c[12], c[5] + c[13], c[6] + c[14], c[7] + c[15]}
	l4 := [4]float32{l8[0] + l8[4], l8[1] + l8[5], l8[2] + l8[6], l8[3] + l8[7]}
	l2 := [2]float32{l4[0] + l4[2], l4[1] + l4[3]}
	return l2[0] + l2[1]
}

// TestRMSNormReductionOrder pins the norm's sum of squares to sixteen chains
// folded by the w = 8, 4, 2, 1 tree, on every arm, at the benchmark model's
// hidden size and at a length with a ragged tail. Each input is one on which
// the orders a kernel might take instead — one ascending chain, the chains
// folded in adjacent pairs, the chains summed in ascending order — round to
// other bits, in the sum and in the normalized output, so an arm that keeps
// any of them fails. The sums are also pinned as literals.
func TestRMSNormReductionOrder(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want uint32 // math.Float32bits of the sum of squares
	}{{256, 0x42aa851e}, {300, 0x42c2d98e}} {
		x, gain := lanes(1, tc.n, 87)[0], lanes(1, tc.n, 88)[0]
		ref := normSumRef(x)
		if got := math.Float32bits(ref); got != tc.want {
			t.Fatalf("n=%d: reference sum %#x, pinned %#x", tc.n, got, tc.want)
		}
		var ascending float32
		for _, v := range x {
			ascending += float32(v * v)
		}
		c := chainSums(x)
		adjacent := c
		for w := 1; w < 16; w *= 2 {
			for j := 0; j+w < 16; j += 2 * w {
				adjacent[j] += adjacent[j+w]
			}
		}
		var serial float32
		for _, v := range c {
			serial += v
		}
		want := make([]float32, tc.n)
		rmsNormScale(want, x, gain, 1e-5, ref)
		for _, other := range []struct {
			name string
			ss   float32
		}{{"ascending", ascending}, {"adjacent tree", adjacent[0]}, {"serial chains", serial}} {
			if other.ss == ref {
				t.Fatalf("n=%d: the %s order rounds to the same sum: the input does not tell them apart", tc.n, other.name)
			}
			out := make([]float32, tc.n)
			rmsNormScale(out, x, gain, 1e-5, other.ss)
			if sameBitsAll(out, want) {
				t.Fatalf("n=%d: the %s order gives the same output: the input does not tell them apart", tc.n, other.name)
			}
		}
		t.Run(fmt.Sprintf("n%d", tc.n), func(t *testing.T) {
			eachArm(t, func(t *testing.T) {
				if got := sumSquares(x); math.Float32bits(got) != tc.want {
					t.Fatalf("sum of squares %#x, want %#x", math.Float32bits(got), tc.want)
				}
				got := make([]float32, tc.n)
				RMSNormInto(got, x, gain, 1e-5)
				sameFloats(t, "RMSNormInto", got, want)
			})
		})
	}
}

func sameBitsAll(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkNormArm asserts that the selected arm's RMSNormInto — into a fresh
// dst and in place — and sumSquares equal the pure-Go arm's by bits (a NaN
// matches any NaN).
func checkNormArm(t *testing.T, x, gain []float32, eps float32) {
	t.Helper()
	what := fmt.Sprintf("n=%d arm=%s", len(x), armNames[arm])
	level := arm
	arm = armGo
	wantSS := sumSquares(x)
	want := make([]float32, len(x))
	RMSNormInto(want, x, gain, eps)
	arm = level
	sameFloats(t, what+" sumSquares", []float32{sumSquares(x)}, []float32{wantSS})
	got := make([]float32, len(x))
	RMSNormInto(got, x, gain, eps)
	sameFloats(t, what, got, want)
	copy(got, x)
	RMSNormInto(got, got, gain, eps)
	sameFloats(t, what+" in place", got, want)
}

// FuzzRMSNormMatchesSpec lets the fuzzer pick raw float32 bits for x and
// gain, eps's bits and a length in 0–300 (every ragged tail after 0–18
// sixteen-float blocks): every arm's RMSNormInto must equal the pure-Go
// specification bit for bit. The seeds hold ±0, subnormals, values whose
// squares overflow to +Inf, ±Inf and NaN.
func FuzzRMSNormMatchesSpec(f *testing.F) {
	negZero, inf, nan := float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN())
	for i, seed := range [][]float32{
		{0, negZero}, {math.SmallestNonzeroFloat32, -1e-40, 1e-39}, {3e19, -2e20, 1},
		{math.MaxFloat32, 1}, {1, nan, 2}, {-inf, 0.5}, {1.1, -0.37, 255.5, 1e-3},
	} {
		raw := make([]byte, 4*len(seed))
		for j, v := range seed {
			binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(v))
		}
		f.Add(raw, uint16(17*i+3), math.Float32bits(1e-5))
	}
	f.Add([]byte{0x17, 0xac, 0xae, 0xc2, 0x4f, 0xc0, 0xb0, 0x42}, uint16(256), uint32(0))
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, eps uint32) {
		x := fuzzFloats(raw, int(n)%301)
		gain := fuzzFloats(append([]byte{byte(n)}, raw...), len(x))
		eachArm(t, func(t *testing.T) { checkNormArm(t, x, gain, math.Float32frombits(eps)) })
	})
}

// checkRoPEArm asserts that the selected arm's ApplyRoPECached equals the
// pure-Go loop by bits (a NaN matches any NaN).
func checkRoPEArm(t *testing.T, x, sin, cos []float32) {
	t.Helper()
	want := append([]float32(nil), x...)
	got := append([]float32(nil), x...)
	level := arm
	arm = armGo
	ApplyRoPECached(want, sin, cos)
	arm = level
	ApplyRoPECached(got, sin, cos)
	sameFloats(t, fmt.Sprintf("d=%d arm=%s", len(x), armNames[arm]), got, want)
}

// FuzzRoPEMatchesSpec lets the fuzzer pick raw float32 bits for x and the
// sin and cos tables and an even head dimension in 2–128: every arm's
// ApplyRoPECached must equal the scalar loop bit for bit.
func FuzzRoPEMatchesSpec(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0x80, 0x7f, 1, 0, 0, 0}, uint8(15))
	f.Add([]byte{0x17, 0xac, 0xae, 0xc2, 0x4f, 0xc0, 0xb0, 0x42, 0xf3, 0x04, 0x35, 0x3f}, uint8(63))
	f.Fuzz(func(t *testing.T, raw []byte, half uint8) {
		d := 2 * (int(half)%64 + 1)
		x := fuzzFloats(raw, d)
		sin := fuzzFloats(append([]byte{1}, raw...), d/2)
		cos := fuzzFloats(append([]byte{2, 3}, raw...), d/2)
		eachArm(t, func(t *testing.T) { checkRoPEArm(t, x, sin, cos) })
	})
}

// BenchmarkRMSNorm prices the norm at hidden 64, 256 (the benchmark model's)
// and 1024 under every arm, beside the scalar row: the one ascending chain
// (rmsNormAscending) the sixteen chains replaced.
func BenchmarkRMSNorm(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	impls := []struct {
		name  string
		level armLevel
	}{{"scalar", armGo}, {"go", armGo}, {"avx2", armAVX2}, {"avx512", armAVX512}}
	for _, impl := range impls {
		if impl.level > selected {
			continue
		}
		for _, n := range []int{64, 256, 1024} {
			x, gain, dst := lanes(1, n, 7)[0], lanes(1, n, 8)[0], make([]float32, n)
			b.Run(fmt.Sprintf("%s/h%d", impl.name, n), func(b *testing.B) {
				arm = impl.level
				for b.Loop() {
					if impl.name == "scalar" {
						rmsNormAscending(dst, x, gain, 1e-5)
					} else {
						RMSNormInto(dst, x, gain, 1e-5)
					}
				}
			})
		}
	}
}

// BenchmarkRoPE prices the rotation of one head at head dimensions 16, 32
// (the benchmark model's) and 128 under every arm; the go row is the scalar
// loop.
func BenchmarkRoPE(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	for _, level := range []armLevel{armGo, armAVX2, armAVX512} {
		if level > selected {
			continue
		}
		for _, d := range []int{16, 32, 128} {
			x := lanes(1, d, 7)[0]
			sin, cos := make([]float32, d/2), make([]float32, d/2)
			RoPESincosInto(sin, cos, RoPEFreqs(d), 37)
			b.Run(fmt.Sprintf("%s/d%d", armNames[level], d), func(b *testing.B) {
				arm = level
				for b.Loop() {
					ApplyRoPECached(x, sin, cos)
				}
			})
		}
	}
}
