package tensor

import (
	"fmt"
	"math"
	"testing"
)

// lanes builds b pseudo-random activation vectors of length n, with a few
// exact zeros mixed in: the scalar reference skips them, the tile does not,
// and the bits must agree.
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

// gemmShapes covers the tiny model's projection shapes, whole-panel widths
// and ragged remainders (a padded last panel, fewer than 16 columns).
var gemmShapes = [][2]int{{64, 64}, {64, 128}, {128, 64}, {64, 32}, {512, 64}, {13, 7}, {7, 13}, {4, 4}, {33, 40}, {5, 16}}

// armNames are the arm levels by the names their subtests and benchmark rows
// take.
var armNames = [...]string{armGo: "go", armAVX2: "avx2", armAVX512: "avx512"}

// eachArm runs f under every arm level this host has — go, avx2, avx512 — by
// setting the package's selector, so the pure-Go specification is exercised
// on an assembly host too; a level the host lacks is skipped.
func eachArm(t *testing.T, f func(t *testing.T)) {
	selected := arm
	defer func() { arm = selected }()
	for level, name := range armNames {
		t.Run(name, func(t *testing.T) {
			if armLevel(level) > selected {
				t.Skip("this arm is not available on this host or build")
			}
			arm = armLevel(level)
			f(t)
		})
	}
}

func newLanes(b, n int) [][]float32 {
	out := make([][]float32, b)
	for i := range out {
		out[i] = make([]float32, n)
	}
	return out
}

func sameBits(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("%s lane %d col %d: %g (%#x) != %g (%#x)", what, i, j,
					got[i][j], math.Float32bits(got[i][j]), want[i][j], math.Float32bits(want[i][j]))
			}
		}
	}
}

// TestMatMatIntoMatchesMatVecInto pins the LM head's form — the packed
// transpose of a row-major matrix — to MatVecInto bit-for-bit across lane
// counts and shapes.
func TestMatMatIntoMatchesMatVecInto(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, b := range []int{1, 2, 3, 5, 8} {
			for _, shape := range gemmShapes {
				m := testMatrix(shape[0], shape[1], uint64(b)*31)
				xs := lanes(b, shape[1], uint64(b)*7+1)
				want, got := newLanes(b, shape[0]), newLanes(b, shape[0])
				for i := range xs {
					MatVecInto(want[i], m, xs[i])
				}
				Pack(Transpose(m)).MulInto(got, xs)
				sameBits(t, fmt.Sprintf("b=%d shape=%v", b, shape), got, want)
			}
		}
	})
}

// TestMatTMatIntoMatchesVecMatInto pins the batched projection — over the
// packed weight and over the row-major one — to VecMatInto bit-for-bit across
// lane counts and shapes, exact-zero activations included.
func TestMatTMatIntoMatchesVecMatInto(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, b := range []int{1, 2, 3, 5, 8} {
			for _, shape := range gemmShapes {
				m := testMatrix(shape[0], shape[1], uint64(b)*131)
				xs := lanes(b, shape[0], uint64(b)*19+3)
				want, got, gotT := newLanes(b, shape[1]), newLanes(b, shape[1]), newLanes(b, shape[1])
				for i := range xs {
					VecMatInto(want[i], xs[i], m)
				}
				Pack(m).MulInto(got, xs)
				sameBits(t, fmt.Sprintf("packed b=%d shape=%v", b, shape), got, want)
				MatTMatTransInto(gotT, xs, m, Transpose(m))
				sameBits(t, fmt.Sprintf("row-major b=%d shape=%v", b, shape), gotT, want)
			}
		}
	})
}

// TestVecMatTransIntoMatchesVecMatInto pins the single-lane entry
// (ForwardInto's projections) to VecMatInto bit-for-bit, on activations with
// exact zeros and strictly zero-free ones.
func TestVecMatTransIntoMatchesVecMatInto(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, shape := range gemmShapes {
			m := testMatrix(shape[0], shape[1], uint64(shape[0])*37)
			p := Pack(m)
			for _, zeroFree := range []bool{false, true} {
				x := lanes(1, shape[0], uint64(shape[1])*13+5)[0]
				if zeroFree {
					fillZeros(x, 0.25)
				}
				want, got := newLanes(1, shape[1]), newLanes(1, shape[1])
				VecMatInto(want[0], x, m)
				p.MulVecInto(got[0], x)
				sameBits(t, fmt.Sprintf("zeroFree=%v shape=%v", zeroFree, shape), got, want)
			}
		}
	})
	// Contract panics: the activation must have the weight's row count.
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched activation length accepted")
		}
	}()
	Pack(testMatrix(8, 4, 1)).MulVecInto(make([]float32, 4), make([]float32, 4))
}

// fillZeros replaces every exact zero in x with v.
func fillZeros(x []float32, v float32) {
	for j := range x {
		if x[j] == 0 {
			x[j] = v
		}
	}
}

// TestMatTMatTransZeroFreeLanes pins the tile to VecMatInto on strictly
// zero-free activations, then on the same lanes with +0 and −0 planted: the
// reference skips those terms, the tile adds their ±0 products, and the bits
// agree — the zero-skip fork this kernel replaced was a no-op.
func TestMatTMatTransZeroFreeLanes(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		const b = 4
		m := testMatrix(96, 80, 7)
		p := Pack(m)
		xs := lanes(b, 96, 11)
		negZero := float32(math.Copysign(0, -1))
		for _, variant := range []string{"zero-free", "with-zeros"} {
			for i := range xs {
				fillZeros(xs[i], 0.125)
				if variant == "with-zeros" {
					xs[i][0], xs[i][i+1], xs[i][40], xs[i][95] = negZero, 0, negZero, 0
				}
			}
			want, got := newLanes(b, 80), newLanes(b, 80)
			for i := range xs {
				VecMatInto(want[i], xs[i], m)
			}
			p.MulInto(got, xs)
			sameBits(t, variant, got, want)
		}
	})
}

// TestShardedRangesAssemble verifies that disjoint panel shards assemble to
// exactly the full-range result, for a cut at every panel boundary of a
// weight with a ragged last panel — the invariant the parallel drivers rely
// on.
func TestShardedRangesAssemble(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		const b = 7
		p := Pack(testMatrix(64, 90, 17))
		xs := lanes(b, 64, 23)
		want, got := newLanes(b, 90), newLanes(b, 90)
		p.MulInto(want, xs)
		for cut := 0; cut <= p.Panels(); cut++ {
			for i := range got {
				clear(got[i])
			}
			p.MulPanelsInto(got, xs, 0, cut)
			p.MulPanelsInto(got, xs, cut, p.Panels())
			sameBits(t, fmt.Sprintf("cut=%d", cut), got, want)
		}
	})
}

// checkPackedMul builds a rows×cols weight (finite, with exact zeros) and
// nLanes activation vectors with +0, −0, denormals and ±MaxFloat32 planted,
// all from seed, and asserts that every output of the tile loop — full range,
// one panel at a time, and over the row-major weight — has VecMatInto's bits.
func checkPackedMul(t *testing.T, seed uint64, rows, cols, nLanes int) {
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if v := next(); v%11 != 0 {
			m.Data[i] = float32(int64(v%4001)-2000) / 1999
		}
	}
	planted := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3e-42, math.MaxFloat32, -math.MaxFloat32}
	xs := newLanes(nLanes, rows)
	for _, x := range xs {
		for j := range x {
			if v := next(); v%7 == 0 {
				x[j] = planted[next()%uint64(len(planted))]
			} else {
				x[j] = float32(int64(v%2001)-1000) / 499
			}
		}
	}
	want := newLanes(nLanes, cols)
	for i := range xs {
		VecMatInto(want[i], xs[i], m)
	}
	p := Pack(m)
	what := fmt.Sprintf("seed=%d %dx%d lanes=%d", seed, rows, cols, nLanes)
	got := newLanes(nLanes, cols)
	p.MulInto(got, xs)
	sameBits(t, what+" full", got, want)
	for i := range got {
		clear(got[i])
	}
	for q := p.Panels() - 1; q >= 0; q-- {
		p.MulPanelsInto(got, xs, q, q+1)
	}
	sameBits(t, what+" per-panel", got, want)
	for i := range got {
		clear(got[i])
	}
	MatTMatTransInto(got, xs, m, &Matrix{Rows: cols, Cols: rows})
	sameBits(t, what+" row-major", got, want)
}

// fuzzShape maps raw fuzz inputs onto K, N ∈ [1, 1100] and 1–9 lanes (every
// lane count mod 4, N mod 16 ≠ 0 included).
func fuzzShape(k, n uint16, lanes uint8) (int, int, int) {
	return int(k)%1100 + 1, int(n)%1100 + 1, int(lanes)%9 + 1
}

// TestPackedMulMatchesScalar is the generated kernel-equivalence check: 60
// seeded random shapes per tile implementation, plus the edges.
func TestPackedMulMatchesScalar(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, e := range [][3]int{{1, 1, 1}, {1, 16, 4}, {1100, 1100, 9}, {256, 24, 5}, {3, 17, 2}} {
			checkPackedMul(t, 1, e[0], e[1], e[2])
		}
		s := uint64(99)
		for i := 0; i < 60; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			rows, cols, nLanes := fuzzShape(uint16(s>>20), uint16(s>>36), uint8(s>>52))
			if i%2 == 0 {
				rows, cols = rows%97+1, cols%97+1 // small shapes: mostly ragged panels
			}
			checkPackedMul(t, s, rows, cols, nLanes)
		}
	})
}

// FuzzPackedMulMatchesScalar lets the fuzzer pick the shape, lane count and
// data seed; every arm must match VecMatInto bit for bit.
func FuzzPackedMulMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint16(255), uint16(1023), uint8(7))
	f.Add(uint64(2), uint16(0), uint16(23), uint8(0))
	f.Add(uint64(3), uint16(1099), uint16(16), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, k, n uint16, lanes uint8) {
		rows, cols, nLanes := fuzzShape(k, n, lanes)
		eachArm(t, func(t *testing.T) { checkPackedMul(t, seed, rows, cols, nLanes) })
	})
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

// TestBatchedKernelsAllocFree pins the tile loop's entries — batched, one
// lane, ragged last panel, row-major — and the RoPE tables at 0 allocations.
func TestBatchedKernelsAllocFree(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		const b = 7
		m := testMatrix(64, 64, 1)
		mT := Transpose(m)
		p, ragged := Pack(m), Pack(testMatrix(64, 24, 2))
		xs := benchLanes(b, 64)
		dst, dstRagged := newLanes(b, 64), newLanes(b, 24)
		freqs := RoPEFreqs(16)
		sin := make([]float32, 8)
		cos := make([]float32, 8)
		if n := testing.AllocsPerRun(10, func() {
			p.MulInto(dst, xs)
			p.MulVecInto(dst[0], xs[0])
			p.MulPanelsInto(dst, xs, 1, 3)
			ragged.MulInto(dstRagged, xs)
			MatTMatTransInto(dst, xs, m, mT)
			RoPESincosInto(sin, cos, freqs, 37)
			ApplyRoPECached(xs[0][:16], sin, cos)
		}); n != 0 {
			t.Fatalf("batched kernels allocated %v per run", n)
		}
	})
}

// benchLanes builds zero-free activations: real hidden states essentially
// never contain exact zeros.
func benchLanes(b int, n int) [][]float32 {
	xs := lanes(b, n, 42)
	for i := range xs {
		fillZeros(xs[i], 0.25)
	}
	return xs
}

// BenchmarkGEMM prices the projection GEMM at the shapes the benchmark's
// small-llama model runs (K×N: attention 256×256 and 256×128, FFN up
// 256×1024 and down 1024×256, LM head = packed embedᵀ 256×1024 over a 1024
// vocabulary) at r lanes, once per arm over packed panels, with the scalar
// reference (VecMatInto per lane) and the row-major entry at the host's arm
// beside them.
func BenchmarkGEMM(b *testing.B) {
	selected := arm
	defer func() { arm = selected }()
	shapes := []struct {
		name       string
		rows, cols int
	}{{"256x256", 256, 256}, {"256x128", 256, 128}, {"256x1024", 256, 1024}, {"1024x256", 1024, 256}, {"lmhead1024x256", 256, 1024}}
	impls := []struct {
		name  string
		level armLevel
	}{{"scalar", selected}, {"go", armGo}, {"avx2", armAVX2}, {"avx512", armAVX512}, {"rowmajor", selected}}
	for _, impl := range impls {
		if impl.level > selected {
			continue
		}
		for _, sh := range shapes {
			m := testMatrix(sh.rows, sh.cols, 1)
			if sh.name == "lmhead1024x256" {
				m = Transpose(testMatrix(sh.cols, sh.rows, 1))
			}
			p, mT := Pack(m), &Matrix{Rows: sh.cols, Cols: sh.rows}
			for _, r := range []int{1, 4, 8, 40, 72} {
				xs, dst := benchLanes(r, sh.rows), newLanes(r, sh.cols)
				b.Run(fmt.Sprintf("%s/%s/r%d", impl.name, sh.name, r), func(b *testing.B) {
					arm = impl.level
					for b.Loop() {
						switch impl.name {
						case "scalar":
							for l := range xs {
								VecMatInto(dst[l], xs[l], m)
							}
						case "rowmajor":
							MatTMatTransInto(dst, xs, m, mT)
						default:
							p.MulInto(dst, xs)
						}
					}
					flops := 2 * float64(r) * float64(sh.rows) * float64(sh.cols) * float64(b.N)
					b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
