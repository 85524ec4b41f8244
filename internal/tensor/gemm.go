package tensor

// Batched (weight-stationary) matrix–matrix kernels for fused batched
// decode. Each kernel computes, for every batch lane b, exactly the vector
// product its single-lane twin computes — MatMatInto ↔ MatVecInto,
// MatTMatTransInto ↔ VecMatInto — so results are bit-identical per lane,
// while the batch-level structure streams each weight matrix once per
// decode step instead of once per running request.
//
// Two empirical facts about this hardware (pure scalar Go) shape the
// implementation, both measured by the GEMM benchmarks in gemm_test.go:
//
//  1. The row-major four-row dot-product loop (MatVecInto's shape) is the
//     fastest matrix–vector traversal Go's compiler produces: every weight
//     element is loaded once, consumed once, and never needs a register
//     copy. The column-major traversal VecMatInto must use for row-major
//     weights runs ~1.6-1.8× slower per multiply-accumulate.
//  2. Register-blocking a weight panel across multiple lanes does not beat
//     per-lane streaming over a transposed copy: the extra live values
//     push the register allocator into spills that cost more than the
//     shared loads save. (The weights are L2/L3-resident, and scalar
//     compute — not memory bandwidth — is the binding resource.)
//
// The batched fast path therefore stores a transposed copy of each
// projection matrix (built once at model construction; weights are
// immutable) and runs the row-major loop per lane over it: MatTMatTransInto.
// Bit-identity is preserved because transposing only changes the traversal,
// not the per-output reduction order — dst[j] = Σ_k x[k]·W[k][j] accumulates
// over k ascending in both formulations, with identical multiply operands.
// The one semantic difference is VecMatInto's skip of exactly-zero
// activations, which the row-major loop does not perform; the kernels
// handle it by dispatch: a lane whose activation vector contains no exact
// zero (checked in O(rows), the overwhelmingly common case for real hidden
// states) takes the fast path on which the skip could never have fired,
// and a lane with an exact zero falls back to the skip-exact column-major
// kernel.

// MatMatInto computes dst[b] = m × xs[b] for every lane b — the batched
// counterpart of MatVecInto (row-major weights, e.g. the LM head). Each
// lane runs MatVecInto's exact four-row loop, so dst[b] is bit-identical
// to MatVecInto(dst[b], m, xs[b]); batching keeps the row panels hot in
// cache across consecutive lanes instead of re-streaming the full weight
// set between sessions. It panics on shape mismatch.
func MatMatInto(dst [][]float32, m *Matrix, xs [][]float32) {
	if len(dst) != len(xs) {
		panic("tensor: matmat lane count mismatch")
	}
	for b := range xs {
		if len(xs[b]) != m.Cols {
			panic("tensor: matmat shape mismatch")
		}
		if len(dst[b]) != m.Rows {
			panic("tensor: matmat dst length mismatch")
		}
	}
	MatMatRowsInto(dst, m, xs, 0, m.Rows)
}

// MatMatRowsInto computes rows [r0, r1) of MatMatInto — the row-sharded
// entry point parallel drivers split across workers. Shards write disjoint
// dst ranges, so concurrent calls with disjoint [r0, r1) are safe and the
// assembled result is bit-identical to one full-range call. Shapes must
// already satisfy MatMatInto's contract.
func MatMatRowsInto(dst [][]float32, m *Matrix, xs [][]float32, r0, r1 int) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic("tensor: matmat row range out of bounds")
	}
	for b := range xs {
		matVecRows(dst[b], m.Data, m.Cols, xs[b], r0, r1)
	}
}

// matVecRows is MatVecInto's four-row register tile restricted to rows
// [r0, r1): four independent accumulator chains, each weight element
// loaded once and consumed once. Per row the summation order over j is
// exactly Dot's, so results are bit-identical to MatVecInto.
func matVecRows(dst []float32, data []float32, cols int, x []float32, r0, r1 int) {
	x = x[:cols]
	i := r0
	for ; i+4 <= r1; i += 4 {
		q0 := data[i*cols : i*cols+cols]
		q1 := data[(i+1)*cols : (i+1)*cols+cols][:len(q0)]
		q2 := data[(i+2)*cols : (i+2)*cols+cols][:len(q0)]
		q3 := data[(i+3)*cols : (i+3)*cols+cols][:len(q0)]
		var s0, s1, s2, s3 float32
		for j, w := range q0 {
			a := x[j]
			s0 += w * a
			s1 += q1[j] * a
			s2 += q2[j] * a
			s3 += q3[j] * a
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < r1; i++ {
		row := data[i*cols : i*cols+cols]
		var s float32
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// MatTMatTransInto computes dst[b] = xs[b]ᵀ × m for every lane b — the
// batched counterpart of VecMatInto, used by every per-layer projection —
// given both m and its transpose mT (mT = Transpose(m), built once for
// immutable weights): zero-free lanes run the fast row-major loop over mT,
// lanes with exact-zero activations reproduce VecMatInto's skip over m.
// Output is bit-identical to VecMatInto(dst[b], xs[b], m) for every lane.
// It panics on shape mismatch, including mT not being m's transpose shape.
func MatTMatTransInto(dst, xs [][]float32, m, mT *Matrix) {
	if len(dst) != len(xs) {
		panic("tensor: mattmat lane count mismatch")
	}
	if mT.Rows != m.Cols || mT.Cols != m.Rows {
		panic("tensor: mattmat transpose shape mismatch")
	}
	for b := range xs {
		if len(xs[b]) != m.Rows {
			panic("tensor: mattmat shape mismatch")
		}
		if len(dst[b]) != m.Cols {
			panic("tensor: mattmat dst length mismatch")
		}
	}
	MatTMatTransColsInto(dst, xs, m, mT, 0, m.Cols)
}

// MatTMatTransColsInto computes output columns [c0, c1) of
// MatTMatTransInto (rows [c0, c1) of mT) — the sharded entry point.
// Shards write disjoint dst ranges; the assembled result is bit-identical
// to one full-range call. Shapes must already satisfy MatTMatTransInto's
// contract.
func MatTMatTransColsInto(dst, xs [][]float32, m, mT *Matrix, c0, c1 int) {
	if c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic("tensor: mattmat column range out of bounds")
	}
	rows := m.Rows
	for b := range xs {
		x := xs[b][:rows]
		if hasZero(x) {
			matTMatSkipLane(dst[b], x, m.Data, m.Cols, c0, c1)
			continue
		}
		matVecRows(dst[b], mT.Data, mT.Cols, x, c0, c1)
	}
}

// VecMatTransInto is VecMatInto given both m and its transpose mT
// (mT = Transpose(m), built once for immutable weights) — the single-stream
// backport of the batched plane's per-lane dispatch: a zero-free activation
// vector takes the row-major four-row loop over mT (~1.5× faster per
// multiply-accumulate than the column-major traversal, see the file
// comment), and a vector containing an exact zero falls back to VecMatInto
// so its zero-skip is reproduced. Output is bit-identical to
// VecMatInto(dst, x, m) either way: transposing only changes the traversal,
// not the per-output reduction order. It panics on shape mismatch.
func VecMatTransInto(dst, x []float32, m, mT *Matrix) {
	if mT.Rows != m.Cols || mT.Cols != m.Rows {
		panic("tensor: vecmat transpose shape mismatch")
	}
	if len(x) != m.Rows {
		panic("tensor: vecmat shape mismatch")
	}
	if len(dst) != m.Cols {
		panic("tensor: vecmat dst length mismatch")
	}
	if hasZero(x) {
		VecMatInto(dst, x, m)
		return
	}
	matVecRows(dst, mT.Data, mT.Cols, x, 0, mT.Rows)
}

// matTMatSkipLane is the single-lane column-range kernel with VecMatInto's
// zero-skip — the reference arithmetic the fast paths must match, and the
// fallback for lanes whose activations contain exact zeros.
func matTMatSkipLane(d, x []float32, data []float32, cols, c0, c1 int) {
	j := c0
	for ; j+4 <= c1; j += 4 {
		var s0, s1, s2, s3 float32
		for k, vv := range x {
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
		d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
	}
	for ; j < c1; j++ {
		var s float32
		for k, vv := range x {
			if vv == 0 {
				continue
			}
			s += vv * data[k*cols+j]
		}
		d[j] = s
	}
}

// hasZero reports whether any element is exactly zero — the dispatch
// predicate for the zero-skip-free fast paths.
func hasZero(x []float32) bool {
	for _, v := range x {
		if v == 0 {
			return true
		}
	}
	return false
}

// Transpose returns mᵀ as a new matrix. The fused decode plane transposes
// each (immutable) projection matrix once at model construction so its
// batched steps can traverse weights row-major.
func Transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}

// RMSNormRowsInto applies RMSNormInto lane-wise: dst[b] = RMSNorm(xs[b],
// gain). Normalisation is O(B·H) and lane-local, so the batched form is a
// plain loop — it exists so the fused forward pass reads as one batched
// pipeline and the arithmetic stays shared with the single-lane path.
func RMSNormRowsInto(dst, xs [][]float32, gain []float32, eps float32) {
	if len(dst) != len(xs) {
		panic("tensor: rmsnorm lane count mismatch")
	}
	for b := range xs {
		RMSNormInto(dst[b], xs[b], gain, eps)
	}
}
