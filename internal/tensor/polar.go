package tensor

import "math"

// The weight sampler's transform. The Marsaglia polar method turns an
// accepted pair (u, s) — u ∈ (−1, 1), s = u² + v² ∈ (0, 1), drawn by
// rng.Polar — into the normal variate u·√(−2·ln s / s). model.New draws its
// weights as float32(that)·scale, in the order NormFloat64 always drew them,
// so the transform below has to reproduce, bit for bit, what
// float32(u*math.Sqrt(-2*math.Log(s)/s))*scale computes on amd64, where
// math.Log is the assembly routine archLog. normal32 is that sequence written
// out: archLog's reduction and polynomial, then −2·ln s, the divide, the
// square root, the product with u, the float32 rounding and the scale — each
// a single IEEE-rounded operation. The AVX-512 arm (polar_amd64.s) executes
// the same sequence on eight doubles per ZMM register and is equal to it by
// math.Float32bits.
//
// archLog's reduction, for a positive finite x (the sign bit is 0):
//
//	f1 = bits(x) & (2⁵²−1) | bits(0.5)       the mantissa in [0.5, 1)
//	k  = float64(bits(x) >> 52) − 1022       the exponent, exact
//	if !(√2/2 < f1) { k −= 1; f1 ·= 2 }     archLog's CMPSD not-less-than
//
// then f = f1 − 1, s = f / (2 + f), and with s² and s⁴,
//
//	t1 = s²·(((L7·s⁴ + L5)·s⁴ + L3)·s⁴ + L1)
//	t2 = s⁴·((L6·s⁴ + L4)·s⁴ + L2)
//	hf = (0.5·f)·f
//	ln = k·Ln2Hi − ((hf − (s·(hf + (t1 + t2)) + k·Ln2Lo)) − f)
//
// The adjustment differs from pure-Go math.log, which writes it as
// f1 < √2/2: the two disagree at f1 = √2/2 exactly, where archLog takes
// the adjustment (both reductions round to the same logarithm there, so
// only the sequence, not a result, tells them apart). archLog also reads a subnormal's exponent field as it
// is (k = −1022) instead of normalising first; the sequence keeps that too.
// Every product sits under an explicit float64(…) conversion, so no build
// can fuse it into the add that follows — arm64 computes amd64's bits.
const (
	logHSqrt2 = 7.07106781186547524401e-01 // √2/2
	logLn2Hi  = 6.93147180369123816490e-01
	logLn2Lo  = 1.90821492927058770002e-10
	logL1     = 6.666666666666735130e-01
	logL2     = 3.999999999940941908e-01
	logL3     = 2.857142874366239149e-01
	logL4     = 2.222219843214978396e-01
	logL5     = 1.818357216161805012e-01
	logL6     = 1.531383769920937332e-01
	logL7     = 1.479819860511658591e-01
	logBias   = 1022
)

// polarTable is the constants as the assembly reads them, in the order it
// loads them into Z17–Z31.
var polarTable = [...]float64{0.5, logBias, logHSqrt2, 1, 2,
	logL7, logL5, logL3, logL1, logL6, logL4, logL2, logLn2Lo, logLn2Hi, -2}

// normal32 returns float32(u·√(−2·ln s / s))·scale by the operation sequence
// above, ln being log64, for s in (0, 1).
func normal32(u, s float64, scale float32) float32 {
	return float32(u*math.Sqrt(-2*log64(s)/s)) * scale
}

// log64 is amd64's math.Log (archLog) for a positive finite x, operation for
// operation: the reduction and polynomial above.
func log64(x float64) float64 {
	b := math.Float64bits(x)
	f1 := math.Float64frombits(b&(1<<52-1) | math.Float64bits(0.5))
	k := float64(int32(b>>52)) - logBias
	if !(logHSqrt2 < f1) {
		k -= 1
		f1 *= 2
	}
	f := f1 - 1
	r := f / (2 + f)
	r2 := r * r
	r4 := r2 * r2
	t1 := float64(logL7*r4) + logL5
	t1 = float64(t1*r4) + logL3
	t1 = float64(t1*r4) + logL1
	t2 := float64(logL6*r4) + logL4
	t2 = float64(t2*r4) + logL2
	hf := 0.5 * f * f
	lo := float64(r*(hf+(float64(r2*t1)+float64(r4*t2)))) + float64(k*logLn2Lo)
	return float64(k*logLn2Hi) - ((hf - lo) - f)
}

// NormalsInto sets dst[i] = float32(u[i]·√(−2·ln s[i] / s[i]))·scale for
// accepted polar pairs (u[i], s[i]): the normal draws of rng.Polar's pairs,
// equal by bits to float32(NormFloat64())·scale on amd64. Whole groups of
// eight take the AVX-512 arm when it is selected; the rest, and every element
// on the other arms, take normal32. It panics on a length mismatch.
func NormalsInto(dst []float32, u, s []float64, scale float32) {
	if len(u) != len(dst) || len(s) != len(dst) {
		panic("tensor: normals length mismatch")
	}
	i := 0
	if arm == armAVX512 {
		i = len(dst) &^ 7
	}
	if i > 0 {
		normalsAVX512(&dst[0], &u[0], &s[0], i/8, scale)
	}
	for ; i < len(dst); i++ {
		dst[i] = normal32(u[i], s[i], scale)
	}
}
