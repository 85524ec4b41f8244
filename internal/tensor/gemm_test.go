package tensor

import (
	"math"
	"testing"
)

// lanes builds b pseudo-random activation vectors of length n, with a few
// exact zeros mixed in so the batched kernels' zero-skip dispatch is
// exercised.
func lanes(b, n int, seed uint64) [][]float32 {
	xs := make([][]float32, b)
	s := seed
	for i := range xs {
		xs[i] = make([]float32, n)
		for j := range xs[i] {
			s = s*6364136223846793005 + 1442695040888963407
			if s%17 == 0 {
				continue // leave an exact zero
			}
			xs[i][j] = float32(int64(s>>33)%1000) / 999
		}
	}
	return xs
}

func testMatrix(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[i] = float32(int64(s>>33)%2000-1000) / 997
	}
	return m
}

// shapes covers the tiny model's projection shapes plus ragged remainders.
var gemmShapes = [][2]int{{64, 64}, {64, 128}, {128, 64}, {64, 32}, {512, 64}, {13, 7}, {7, 13}, {4, 4}}

// TestMatMatIntoMatchesMatVecInto pins the batched row-major kernel to its
// single-lane twin bit-for-bit across lane counts and shapes.
func TestMatMatIntoMatchesMatVecInto(t *testing.T) {
	for _, b := range []int{1, 2, 3, 5, 8} {
		for _, shape := range gemmShapes {
			m := testMatrix(shape[0], shape[1], uint64(b)*31)
			xs := lanes(b, shape[1], uint64(b)*7+1)
			want := make([][]float32, b)
			got := make([][]float32, b)
			for i := 0; i < b; i++ {
				want[i] = make([]float32, shape[0])
				got[i] = make([]float32, shape[0])
				MatVecInto(want[i], m, xs[i])
			}
			MatMatInto(got, m, xs)
			for i := 0; i < b; i++ {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("b=%d shape=%v lane %d row %d: %g != %g", b, shape, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestMatTMatIntoMatchesVecMatInto pins the batched projection kernel
// (MatTMatTransInto: transposed fast path, zero-skip fallback included) to
// VecMatInto bit-for-bit across lane counts and shapes.
func TestMatTMatIntoMatchesVecMatInto(t *testing.T) {
	for _, b := range []int{1, 2, 3, 5, 8} {
		for _, shape := range gemmShapes {
			m := testMatrix(shape[0], shape[1], uint64(b)*131)
			mT := Transpose(m)
			xs := lanes(b, shape[0], uint64(b)*19+3)
			want := make([][]float32, b)
			gotT := make([][]float32, b)
			for i := 0; i < b; i++ {
				want[i] = make([]float32, shape[1])
				gotT[i] = make([]float32, shape[1])
				VecMatInto(want[i], xs[i], m)
			}
			MatTMatTransInto(gotT, xs, m, mT)
			for i := 0; i < b; i++ {
				for j := range want[i] {
					if gotT[i][j] != want[i][j] {
						t.Fatalf("trans b=%d shape=%v lane %d col %d: %g != %g", b, shape, i, j, gotT[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestVecMatTransIntoMatchesVecMatInto pins the single-stream transposed
// dispatch (the backport of the batched plane's per-lane fast path to
// ForwardInto's projections) to VecMatInto bit-for-bit, on activations with
// exact zeros (skip fallback) and strictly zero-free ones (row-major fast
// path).
func TestVecMatTransIntoMatchesVecMatInto(t *testing.T) {
	for _, shape := range gemmShapes {
		m := testMatrix(shape[0], shape[1], uint64(shape[0])*37)
		mT := Transpose(m)
		for variant, x := range map[string][]float32{
			"with-zeros": lanes(1, shape[0], uint64(shape[1])*13+5)[0],
			"zero-free":  lanes(1, shape[0], uint64(shape[1])*13+5)[0],
		} {
			if variant == "zero-free" {
				x = append([]float32(nil), x...)
				for j := range x {
					if x[j] == 0 {
						x[j] = 0.25
					}
				}
			}
			want := make([]float32, shape[1])
			got := make([]float32, shape[1])
			VecMatInto(want, x, m)
			VecMatTransInto(got, x, m, mT)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s shape=%v col %d: %g != %g", variant, shape, j, got[j], want[j])
				}
			}
		}
	}
	// Contract panics: transpose shape must actually be the transpose.
	m := testMatrix(8, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched transpose accepted")
		}
	}()
	VecMatTransInto(make([]float32, 4), make([]float32, 8), m, m)
}

// TestMatTMatTransZeroFreeLanes drives the transposed fast path with
// strictly zero-free activations (so the row-major loop, not the skip
// fallback, is under test) and pins it to VecMatInto.
func TestMatTMatTransZeroFreeLanes(t *testing.T) {
	const b = 4
	m := testMatrix(96, 80, 7)
	mT := Transpose(m)
	xs := lanes(b, 96, 11)
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] == 0 {
				xs[i][j] = 0.125
			}
		}
	}
	for i := 0; i < b; i++ {
		want := make([]float32, 80)
		got := make([]float32, 80)
		VecMatInto(want, xs[i], m)
		MatTMatTransInto([][]float32{got}, [][]float32{xs[i]}, m, mT)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("lane %d col %d: %g != %g", i, j, got[j], want[j])
			}
		}
	}
}

// TestShardedRangesAssemble verifies that disjoint row/column shards
// assemble to exactly the full-range result — the invariant the parallel
// drivers rely on.
func TestShardedRangesAssemble(t *testing.T) {
	const b = 8
	m := testMatrix(96, 64, 5)
	xs := lanes(b, 64, 11)
	want := make([][]float32, b)
	got := make([][]float32, b)
	for i := 0; i < b; i++ {
		want[i] = make([]float32, 96)
		got[i] = make([]float32, 96)
	}
	MatMatInto(want, m, xs)
	for _, cut := range []int{0, 1, 33, 95, 96} {
		for i := range got {
			for j := range got[i] {
				got[i][j] = 0
			}
		}
		MatMatRowsInto(got, m, xs, 0, cut)
		MatMatRowsInto(got, m, xs, cut, 96)
		for i := 0; i < b; i++ {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("rows cut=%d lane %d row %d: %g != %g", cut, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	mt := testMatrix(64, 96, 17)
	mtT := Transpose(mt)
	xst := lanes(b, 64, 23)
	wantT := make([][]float32, b)
	gotT := make([][]float32, b)
	for i := 0; i < b; i++ {
		wantT[i] = make([]float32, 96)
		gotT[i] = make([]float32, 96)
	}
	MatTMatTransInto(wantT, xst, mt, mtT)
	for _, cut := range []int{0, 2, 37, 96} {
		for i := range gotT {
			for j := range gotT[i] {
				gotT[i][j] = 0
			}
		}
		MatTMatTransColsInto(gotT, xst, mt, mtT, 0, cut)
		MatTMatTransColsInto(gotT, xst, mt, mtT, cut, 96)
		for i := 0; i < b; i++ {
			for j := range wantT[i] {
				if gotT[i][j] != wantT[i][j] {
					t.Fatalf("cols cut=%d lane %d col %d: %g != %g", cut, i, j, gotT[i][j], wantT[i][j])
				}
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := testMatrix(5, 9, 3)
	mT := Transpose(m)
	if mT.Rows != 9 || mT.Cols != 5 {
		t.Fatalf("transpose shape %dx%d", mT.Rows, mT.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mT.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestRMSNormRowsInto pins the batched norm to the single-lane kernel.
func TestRMSNormRowsInto(t *testing.T) {
	const b, n = 5, 64
	xs := lanes(b, n, 3)
	gain := lanes(1, n, 9)[0]
	want := make([][]float32, b)
	got := make([][]float32, b)
	for i := 0; i < b; i++ {
		want[i] = make([]float32, n)
		got[i] = make([]float32, n)
		RMSNormInto(want[i], xs[i], gain, 1e-5)
	}
	RMSNormRowsInto(got, xs, gain, 1e-5)
	for i := 0; i < b; i++ {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("lane %d elem %d: %g != %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestRoPECachedMatchesApplyRoPE pins the table-driven rotation to the
// inline math.Pow/Sincos path bit-for-bit across positions and dims.
func TestRoPECachedMatchesApplyRoPE(t *testing.T) {
	for _, d := range []int{4, 16, 32, 128} {
		freqs := RoPEFreqs(d)
		sin := make([]float32, d/2)
		cos := make([]float32, d/2)
		for _, pos := range []int{0, 1, 17, 255, 4095} {
			want := lanes(1, d, uint64(d+pos))[0]
			got := append([]float32(nil), want...)
			ApplyRoPE(want, pos)
			RoPESincosInto(sin, cos, freqs, pos)
			ApplyRoPECached(got, sin, cos)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("d=%d pos=%d elem %d: %x != %x", d, pos, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

func TestBatchedKernelsAllocFree(t *testing.T) {
	const b = 8
	m := testMatrix(64, 64, 1)
	mT := Transpose(m)
	xs, dst := benchLanes(b, 64)
	for i := range dst {
		dst[i] = make([]float32, 64)
	}
	freqs := RoPEFreqs(16)
	sin := make([]float32, 8)
	cos := make([]float32, 8)
	if n := testing.AllocsPerRun(10, func() {
		MatMatInto(dst, m, xs)
		MatTMatTransInto(dst, xs, m, mT)
		RoPESincosInto(sin, cos, freqs, 37)
		ApplyRoPECached(xs[0][:16], sin, cos)
	}); n != 0 {
		t.Fatalf("batched kernels allocated %v per run", n)
	}
}

// Benchmarks: per-lane column-major kernels called B times (the
// per-session decode plane) vs the batched transposed path, at the tiny
// model's projection shapes. These quantify the weight-layout win the
// fused decode path is built on.

// benchLanes builds zero-free activations: real hidden states essentially
// never contain exact zeros, so the batched kernels' fast tiles are the
// steady-state path the benchmarks should price.
func benchLanes(b int, n int) ([][]float32, [][]float32) {
	xs := lanes(b, n, 42)
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] == 0 {
				xs[i][j] = 0.25
			}
		}
	}
	dst := make([][]float32, b)
	return xs, dst
}

func benchVecMatx8(b *testing.B, rows, cols int) {
	m := testMatrix(rows, cols, 1)
	xs, dst := benchLanes(8, rows)
	for i := range dst {
		dst[i] = make([]float32, cols)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < 8; l++ {
			VecMatInto(dst[l], xs[l], m)
		}
	}
}

func benchMatTMatTrans(b *testing.B, rows, cols int) {
	m := testMatrix(rows, cols, 1)
	mT := Transpose(m)
	xs, dst := benchLanes(8, rows)
	for i := range dst {
		dst[i] = make([]float32, cols)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatTMatTransInto(dst, xs, m, mT)
	}
}

func BenchmarkGEMVx8VecMat64x128(b *testing.B)    { benchVecMatx8(b, 64, 128) }
func BenchmarkGEMMBatch8Trans64x128(b *testing.B) { benchMatTMatTrans(b, 64, 128) }
func BenchmarkGEMVx8VecMat128x64(b *testing.B)    { benchVecMatx8(b, 128, 64) }
func BenchmarkGEMMBatch8Trans128x64(b *testing.B) { benchMatTMatTrans(b, 128, 64) }
func BenchmarkGEMVx8VecMat64x64(b *testing.B)     { benchVecMatx8(b, 64, 64) }
func BenchmarkGEMMBatch8Trans64x64(b *testing.B)  { benchMatTMatTrans(b, 64, 64) }

func BenchmarkGEMVx8MatVec512x64(b *testing.B) {
	m := testMatrix(512, 64, 1)
	xs, dst := benchLanes(8, 64)
	for i := range dst {
		dst[i] = make([]float32, 512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < 8; l++ {
			MatVecInto(dst[l], m, xs[l])
		}
	}
}

func BenchmarkGEMMBatch8MatMat512x64(b *testing.B) {
	m := testMatrix(512, 64, 1)
	xs, dst := benchLanes(8, 64)
	for i := range dst {
		dst[i] = make([]float32, 512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMatInto(dst, m, xs)
	}
}
