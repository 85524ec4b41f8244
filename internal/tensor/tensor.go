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
// decode allocation-free. MatVecInto and VecMatInto are the scalar references
// the GEMM is bit-identical to; Dot and AXPY over per-token views are the
// ones the attention block is; Exp32 (exp.go) is the one exponential under
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

// MatVecInto computes m × v into the caller-owned dst (length m.Rows),
// allocating nothing. Rows are processed four at a time with independent
// accumulators — each row's summation order is unchanged, so results are
// bit-identical to per-row Dot. It panics on dimension mismatch.
func MatVecInto(dst []float32, m *Matrix, v []float32) {
	if m.Cols != len(v) {
		panic("tensor: matvec shape mismatch")
	}
	if len(dst) != m.Rows {
		panic("tensor: matvec dst length mismatch")
	}
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Row(i)[:len(v)]
		r1 := m.Row(i + 1)[:len(v)]
		r2 := m.Row(i + 2)[:len(v)]
		r3 := m.Row(i + 3)[:len(v)]
		var s0, s1, s2, s3 float32
		for j, vj := range v {
			s0 += vj * r0[j]
			s1 += vj * r1[j]
			s2 += vj * r2[j]
			s3 += vj * r3[j]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
}

// VecMatInto computes vᵀ × m into the caller-owned dst (length m.Cols),
// allocating nothing. The loop runs column-major with register accumulators
// (four output lanes at a time), so no dst element round-trips through
// memory between input rows; per-element accumulation order over k — and the
// zero-skip — match the row-major formulation exactly, so results are
// bit-identical to it. It panics on dimension mismatch.
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
			s0 += vv * r[0]
			s1 += vv * r[1]
			s2 += vv * r[2]
			s3 += vv * r[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < cols; j++ {
		var s float32
		for k, vv := range v {
			if vv == 0 {
				continue
			}
			s += vv * data[k*cols+j]
		}
		dst[j] = s
	}
}

// Dot returns the dot product of equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	b = b[:len(a)] // bounds-check elimination hint
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// AXPY computes dst += alpha * x in place.
func AXPY(dst []float32, alpha float32, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: axpy length mismatch")
	}
	for i := range dst {
		dst[i] += alpha * x[i]
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
		ss += v * v
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
// float32 values.
func ApplyRoPECached(x []float32, sin, cos []float32) {
	if len(x) != 2*len(sin) || len(sin) != len(cos) {
		panic("tensor: RoPE table length mismatch")
	}
	for p, s := range sin {
		c := cos[p]
		a, b := x[2*p], x[2*p+1]
		x[2*p] = a*c - b*s
		x[2*p+1] = a*s + b*c
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
// has zero norm.
func CosineSim(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: cosine length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
