package tensor

import "math"

// The one exponential of the inference path. Exp32 is specified as a fixed
// sequence of float32 operations, each rounded to float32 on its own — the
// way the GEMM tile is specified as one FMA32 chain per output.
// The pure-Go function below is that specification on every architecture;
// the AVX2 arm (exp_amd64.s) executes the same sequence eight lanes at a time,
// the AVX-512 arm sixteen (EXP16, zmm_amd64.h: expSub, SiLUMul and the
// attention block's softmax across rows), and both are equal to it by
// math.Float32bits on every input.
//
//	x  = min(max(x, expLo), expHi)           NaN takes the low clamp
//	n  = (x·log2e + expMagic) − expMagic     round to nearest (even) integer
//	r  = (x − n·ln2Hi) − n·ln2Lo             Cody–Waite, n·ln2Hi is exact
//	p  = ((((p0·r + p1)·r + p2)·r + p3)·r + p4)·r + p5
//	y  = (p·r² + r) + 1
//	e  = y · 2ⁿ                              2ⁿ built from the exponent bits
//
// Every product is rounded before the add that follows it (the explicit
// float32 conversions below; VMULPS then VADDPS in the assembly, never FMA).
// The clamps keep n in [−126, 127], so 2ⁿ is a normal float32 and the result
// is finite, normal and positive for every input: exp(−Inf) is ≈ 2⁻¹²⁶, not 0,
// and exp(+Inf) is ≈ 2.4e38, not +Inf. The polynomial is Cephes' expf.
const (
	expLo    = -87.33654   // smallest x whose result is a normal float32
	expHi    = 88.37626    // largest x that rounds to n = 127
	expLog2e = 1.442695041 // 1 / ln 2
	expMagic = 12582912    // 1.5·2²³: adding it leaves no fraction bits
	expLn2Hi = 0.693359375 // ln 2 to 9 bits, so n·ln2Hi is exact
	expLn2Lo = -2.12194440e-4
	expP0    = 1.9875691500e-4
	expP1    = 1.3981999507e-3
	expP2    = 8.3334519073e-3
	expP3    = 4.1665795894e-2
	expP4    = 1.6666665459e-1
	expP5    = 5.0000001201e-1
)

// expTable is the constants above as the assembly reads them, in the order
// they are used.
var expTable = [...]float32{expLo, expHi, expLog2e, expMagic, expLn2Hi, expLn2Lo,
	expP0, expP1, expP2, expP3, expP4, expP5, 1}

// Exp32 returns e**x in float32 by the operation sequence above: relative
// error under 2⁻²³ against math.Exp inside the clamps, Exp32(±0) = 1 exactly,
// Exp32(x) ≤ 1 for x ≤ 0. The float32 conversion around every product is
// what makes this one function on every build: the Go compiler may fuse
// x*y+z (it does on arm64), but never across an explicit conversion — so
// arm64 computes the same bits as amd64 and as the assembly
// (TestNoImplicitMultiplyAdd keeps every such product converted).
func Exp32(x float32) float32 {
	if !(x > expLo) {
		x = expLo
	}
	if x > expHi {
		x = expHi
	}
	n := (float32(x*expLog2e) + expMagic) - expMagic
	r := x - float32(n*expLn2Hi)
	r -= float32(n * expLn2Lo)
	p := float32(expP0*r) + expP1
	p = float32(p*r) + expP2
	p = float32(p*r) + expP3
	p = float32(p*r) + expP4
	p = float32(p*r) + expP5
	y := float32(p*float32(r*r)) + r
	y += 1
	return float32(y * math.Float32frombits(uint32(int32(n)+127)<<23))
}

// avx2Head is how many leading elements of an n-element pass the 8-lane
// assembly (Exp32's lanes, Scale, AXPY) takes: the whole groups of eight when
// an assembly arm is selected, none otherwise. The ragged tail goes through
// the pure-Go expression, so nothing is masked.
func avx2Head(n int) int {
	if arm == armGo {
		return 0
	}
	return n &^ 7
}

// expSub overwrites xs[i] with Exp32(xs[i] − sub): on the AVX-512 arm
// sixteen lanes at a time, a ragged tail under a lane mask.
func expSub(xs []float32, sub float32) {
	if arm == armAVX512 {
		if len(xs) > 0 {
			expSubAVX512(&xs[0], len(xs), sub)
		}
		return
	}
	i := avx2Head(len(xs))
	if i > 0 {
		expSubAVX2(&xs[0], i/8, sub)
	}
	for ; i < len(xs); i++ {
		xs[i] = Exp32(xs[i] - sub)
	}
}

// Softmax overwrites xs with softmax(xs) using the max-subtraction trick.
// An empty slice is a no-op. The max scan and the normaliser's sum are one
// chain each, in ascending order; only exp(v − max) and the final scale run
// on the vector lanes, and both are element-wise. It is the specification of
// the attention block's softmax, which runs 16 rows' chains at once, one row
// per vector lane (softmaxRows).
func Softmax(xs []float32) {
	if len(xs) == 0 {
		return
	}
	maxV := xs[0]
	for _, v := range xs[1:] {
		if v > maxV {
			maxV = v
		}
	}
	expSub(xs, maxV)
	var sum float32
	for _, e := range xs {
		sum += e
	}
	Scale(xs, 1/sum)
}

// SiLUMul applies the gated activation gate = SiLU(gate) ⊙ up in place —
// SiLU(v) = v·sigmoid(v) = v / (1 + Exp32(−v)), LLaMA's activation — the
// activation and the product in one pass. It panics on length mismatch.
func SiLUMul(gate, up []float32) {
	if len(gate) != len(up) {
		panic("tensor: silu gate/up length mismatch")
	}
	if arm == armAVX512 {
		if len(gate) > 0 {
			siluMulAVX512(&gate[0], &up[0], len(gate))
		}
		return
	}
	i := avx2Head(len(gate))
	if i > 0 {
		siluMulAVX2(&gate[0], &up[0], i/8)
	}
	for ; i < len(gate); i++ {
		v := gate[i]
		gate[i] = v / (1 + Exp32(-v)) * up[i]
	}
}
