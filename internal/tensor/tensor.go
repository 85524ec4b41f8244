// Package tensor implements the minimal float32 linear algebra needed to run
// a real (tiny) transformer in pure Go: row-major matrices, matrix–vector
// products, softmax, RMSNorm, rotary position embeddings, and sampling
// helpers.
//
// The goal is correctness and determinism first: the tiny model exists so
// that compression algorithms (quantisation, eviction) operate on real
// tensors and their accuracy effects are genuine. Wall-clock performance of
// full-size models is handled by the analytical cost model in internal/perf.
// The decode hot path runs on destination-passing kernels — the projection
// GEMM over packed weights (Packed.MulInto, gemm.go), RMSNormInto, and
// attention's two GEMMs per KV page for a block of queries (AttnBlock,
// attend.go) — that write into caller-owned buffers, keeping steady-state
// decode allocation-free.
//
// Every accumulation chain — an output of the GEMM, a score, an attention
// output, a Dot, an AXPY element — is a sequence of one FMA32 step per term:
// a single correctly rounded float32 fused multiply-add, from +0 (or the
// destination's value), in ascending order. MatVecInto and VecMatInto are the
// scalar references the GEMM is bit-identical to; Dot and AXPY over per-token
// views are the ones the attention block is; every assembly arm (gemm_amd64.s)
// is equal to FMA32 by bits. Exp32 (exp.go) is the one exponential under
// Softmax and SiLUMul, and the reference its own AVX2 arm is bit-identical to.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix. It panics on non-positive
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// FMA32 returns x·y + z rounded once to float32 (round to nearest, ties to
// even): the step of every accumulation chain in this package, and what
// VFMADD231SS / VFMADD231PS compute. The product of two float32s is exact in
// float64, so p is, and s = p + z rounds once. Rounding s to float32 rounds
// a second time, which can differ from rounding the exact sum only when s
// sits exactly on a float32 midpoint without being exact; every midpoint has
// its low 28 mantissa bits zero (so its last bit even), and there s is first
// rounded to odd — moved one ulp toward the exact sum when TwoSum's exact
// error e is not zero: up in magnitude when e has s's sign, down when not —
// which makes the conversion a single correct rounding (53 ≥ 24 + 2 bits).
// float32(math.FMA(x, y, z)) is not this function: it rounds twice
// (TestFMA32MatchesBig has a triple it gets wrong). A non-finite s passes
// through. Pure Go, with every product under an explicit conversion, so no
// build fuses or reorders it: one set of bits everywhere.
func FMA32(x, y, z float32) float32 {
	p := float64(float64(x) * float64(y))
	zd := float64(z)
	s := p + zd
	if b := math.Float64bits(s); b&(1<<28-1) == 0 {
		pp := s - zd
		// e is NaN exactly when s is not finite; neither it nor 0 is < 0 or > 0.
		if e := (p - pp) + (zd - (s - pp)); e < 0 || e > 0 {
			if (e > 0) == (s > 0) {
				b++
			} else {
				b--
			}
			s = math.Float64frombits(b)
		}
	}
	return float32(s)
}

// MatVecInto computes m × v into the caller-owned dst (length m.Rows),
// allocating nothing: each row is Dot(m.Row(i), v), bit for bit — the FMA arm
// runs eight rows' chains at a time. It panics on dimension mismatch.
func MatVecInto(dst []float32, m *Matrix, v []float32) {
	if m.Cols != len(v) {
		panic("tensor: matvec shape mismatch")
	}
	if len(dst) != m.Rows {
		panic("tensor: matvec dst length mismatch")
	}
	if arm != armGo && len(dst) > 0 && len(v) > 0 {
		_ = m.Data[m.Rows*m.Cols-1]
		dotsFMA(&dst[0], &m.Data[0], m.Cols, m.Rows, &v[0], len(v))
		return
	}
	for i := range dst {
		dst[i] = Dot(m.Row(i), v)
	}
}

// VecMatInto computes vᵀ × m into the caller-owned dst (length m.Cols),
// allocating nothing. The loop runs column-major with register accumulators
// (four output lanes at a time), so no dst element round-trips through
// memory between input rows; per-element accumulation order over k — and the
// zero-skip — match the row-major formulation exactly, so results are
// bit-identical to it. Skipping a zero activation is exact: FMA32(±0, w, s)
// is s for every finite w and every s but −0, and a chain from +0 is never −0
// (a round-to-nearest sum is −0 only when both addends are). It panics on
// dimension mismatch.
func VecMatInto(dst, v []float32, m *Matrix) {
	if m.Rows != len(v) {
		panic("tensor: vecmat shape mismatch")
	}
	if len(dst) != m.Cols {
		panic("tensor: vecmat dst length mismatch")
	}
	cols := m.Cols
	data := m.Data
	j := 0
	for ; j+4 <= cols; j += 4 {
		var s0, s1, s2, s3 float32
		for k, vv := range v {
			if vv == 0 {
				continue
			}
			base := k*cols + j
			r := data[base : base+4 : base+4]
			s0 = FMA32(vv, r[0], s0)
			s1 = FMA32(vv, r[1], s1)
			s2 = FMA32(vv, r[2], s2)
			s3 = FMA32(vv, r[3], s3)
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < cols; j++ {
		var s float32
		for k, vv := range v {
			if vv == 0 {
				continue
			}
			s = FMA32(vv, data[k*cols+j], s)
		}
		dst[j] = s
	}
}

// Dot returns the dot product of equal-length vectors: one FMA32 chain from
// +0 in ascending order.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	if arm != armGo && len(a) > 0 {
		var s float32
		dotsFMA(&s, &a[0], 0, 1, &b[0], len(a))
		return s
	}
	b = b[:len(a)] // bounds-check elimination hint
	var s float32
	for i, av := range a {
		s = FMA32(av, b[i], s)
	}
	return s
}

// AXPY computes dst[i] = FMA32(alpha, x[i], dst[i]) in place — with alpha = 1
// exactly the rounded sum dst[i] + x[i].
func AXPY(dst []float32, alpha float32, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: axpy length mismatch")
	}
	i := avx2Head(len(dst))
	if i > 0 {
		axpyFMA(&dst[0], alpha, &x[0], i/8)
	}
	for ; i < len(dst); i++ {
		dst[i] = FMA32(alpha, x[i], dst[i])
	}
}

// Scale multiplies every element of xs by alpha in place.
func Scale(xs []float32, alpha float32) {
	i := avx2Head(len(xs))
	if i > 0 {
		scaleAVX2(&xs[0], i/8, alpha)
	}
	for ; i < len(xs); i++ {
		xs[i] *= alpha
	}
}

// RMSNormInto writes x normalized by its root-mean-square and scaled by gain,
// as used by LLaMA-family models, into the caller-owned dst, allocating
// nothing. eps guards the division. dst may alias x. It panics on length
// mismatch.
func RMSNormInto(dst, x, gain []float32, eps float32) {
	if len(x) != len(gain) {
		panic("tensor: rmsnorm length mismatch")
	}
	if len(dst) != len(x) {
		panic("tensor: rmsnorm dst length mismatch")
	}
	var ss float32
	for _, v := range x {
		ss += float32(v * v) // rounded, then added: no build may fuse it
	}
	inv := 1 / float32(math.Sqrt(float64(ss/float32(len(x))+eps)))
	for i := range x {
		dst[i] = x[i] * inv * gain[i]
	}
}

// RoPEFreqs returns the standard base-10000 rotary frequency schedule for
// an even head dimension d: freqs[p] = 10000^(-2p/d). The schedule depends
// only on d, so callers on the decode hot path precompute it once instead
// of paying a math.Pow per pair per head per layer per step.
func RoPEFreqs(d int) []float64 {
	if d%2 != 0 {
		panic("tensor: RoPE requires even head dimension")
	}
	freqs := make([]float64, d/2)
	for i := 0; i < d; i += 2 {
		freqs[i/2] = math.Pow(10000, -float64(i)/float64(d))
	}
	return freqs
}

// RoPESincosInto fills sin/cos (length len(freqs)) with the rotation
// coefficients for absolute position pos: float32(Sincos(pos·freqs[p])).
// One fill serves every head of a decode step — the angles depend only on
// (pos, head dimension), not on the head or layer.
func RoPESincosInto(sin, cos []float32, freqs []float64, pos int) {
	if len(sin) != len(freqs) || len(cos) != len(freqs) {
		panic("tensor: RoPE table length mismatch")
	}
	for p, f := range freqs {
		s, c := math.Sincos(float64(pos) * f)
		sin[p] = float32(s)
		cos[p] = float32(c)
	}
}

// ApplyRoPECached rotates x (even length) in place by the rotary position
// embedding over pairs (x[2p], x[2p+1]), using coefficient tables filled by
// RoPESincosInto over RoPEFreqs(len(x)) for the token's absolute position.
// The result is bit-identical to computing each pair's angle and Sincos
// inline (TestRoPECachedMatchesApplyRoPE): the tables hold exactly those
// float32 values. Each product is rounded before the add (the explicit
// conversions), so no build fuses them.
func ApplyRoPECached(x []float32, sin, cos []float32) {
	if len(x) != 2*len(sin) || len(sin) != len(cos) {
		panic("tensor: RoPE table length mismatch")
	}
	for p, s := range sin {
		c := cos[p]
		a, b := x[2*p], x[2*p+1]
		x[2*p] = float32(a*c) - float32(b*s)
		x[2*p+1] = float32(a*s) + float32(b*c)
	}
}

// Argmax returns the index of the largest element, or -1 for an empty slice.
func Argmax(xs []float32) int {
	if len(xs) == 0 {
		return -1
	}
	best, bi := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// CosineSim returns the cosine similarity of two vectors, or 0 when either
// has zero norm. A product of two float32s is exact in float64, so the
// explicit conversions round nothing: fused or not, the bits are the same.
func CosineSim(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: cosine length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(float64(a[i]) * float64(b[i]))
		na += float64(float64(a[i]) * float64(a[i]))
		nb += float64(float64(b[i]) * float64(b[i]))
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
