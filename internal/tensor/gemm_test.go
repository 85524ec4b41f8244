package tensor

import (
	"fmt"
	"math"
	"slices"
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

// pack is the row-major m in panel layout, through the one packing entry.
func pack(m *Matrix) *Packed {
	return PackRows(m.Rows, m.Cols, func(k int, row []float32) { copy(row, m.Row(k)) })
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
				pack(Transpose(m)).MulInto(got, xs)
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
				pack(m).MulInto(got, xs)
				sameBits(t, fmt.Sprintf("packed b=%d shape=%v", b, shape), got, want)
				MatTMatTransInto(gotT, xs, m, Transpose(m))
				sameBits(t, fmt.Sprintf("row-major b=%d shape=%v", b, shape), gotT, want)
			}
		}
	})
}

// TestVecMatTransIntoMatchesVecMatInto pins the tile loop at one lane (a
// stream stepped alone) to VecMatInto bit-for-bit, on activations with exact
// zeros and strictly zero-free ones.
func TestVecMatTransIntoMatchesVecMatInto(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, shape := range gemmShapes {
			m := testMatrix(shape[0], shape[1], uint64(shape[0])*37)
			p := pack(m)
			for _, zeroFree := range []bool{false, true} {
				x := lanes(1, shape[0], uint64(shape[1])*13+5)[0]
				if zeroFree {
					fillZeros(x, 0.25)
				}
				want, got := newLanes(1, shape[1]), newLanes(1, shape[1])
				VecMatInto(want[0], x, m)
				p.MulInto(got, [][]float32{x})
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
	pack(testMatrix(8, 4, 1)).MulInto(newLanes(1, 4), newLanes(1, 4))
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
// zero-free activations, then on the same lanes with +0 and −0 planted: both
// take a step for every term, zeros included, and the bits agree.
func TestMatTMatTransZeroFreeLanes(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		const b = 4
		m := testMatrix(96, 80, 7)
		p := pack(m)
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
// weight with a ragged last panel.
func TestShardedRangesAssemble(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		const b = 7
		p := pack(testMatrix(64, 90, 17))
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
	p := pack(m)
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

// fuzzShape maps raw fuzz inputs onto K, N ∈ [1, 1100] and 1–17 lanes (every
// tile height in a first and in a second group of eight, N mod 16 ≠ 0
// included).
func fuzzShape(k, n uint16, lanes uint8) (int, int, int) {
	return int(k)%1100 + 1, int(n)%1100 + 1, int(lanes)%17 + 1
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

// TestEightLaneTileMatchesScalar pins the tile loop at 1–17 lanes — none, one
// and two full groups of eight, each with every remainder — to VecMatInto
// over a weight of two panel pairs and a lone panel, then, on the AVX-512
// arm, the pair kernel itself at every height 1–8 to tileGo over each of its
// two panels, one or two groups of four lanes, at column offset 16 of a
// 48-column output: the columns outside [16, 48) must keep their contents.
func TestEightLaneTileMatchesScalar(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for n := 1; n <= 17; n++ {
			checkPackedMul(t, uint64(n), 96, 80, n)
		}
		if arm != armAVX512 {
			return
		}
		const c = panelWidth
		for _, k := range []int{1, 5, 96} {
			p := pack(testMatrix(k, 2*panelWidth, uint64(k)))
			for n := 1; n <= 8; n++ {
				xs := lanes(n, k, uint64(k)+1)
				got, want := lanes(n, c+2*panelWidth, uint64(n)), newLanes(n, c+2*panelWidth)
				for l := range got {
					copy(want[l], got[l])
				}
				tilePair(got, xs, c, p.data, k, panelWidth, k*panelWidth)
				for g := 0; g < n; g += 4 {
					for half := 0; half < 2; half++ {
						var d, xq [4][]float32
						for l := range d {
							i := g + min(l, n-g-1)
							d[l], xq[l] = want[i][c+half*panelWidth:], xs[i]
						}
						tileGo(&d, &xq, p.data[half*k*panelWidth:], k, panelWidth, min(4, n-g), false)
					}
				}
				sameBits(t, fmt.Sprintf("k=%d lanes=%d", k, n), got, want)
			}
		}
	})
}

// FuzzPackedMulMatchesScalar lets the fuzzer pick the shape, lane count and
// data seed; every arm must match VecMatInto bit for bit.
func FuzzPackedMulMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint16(255), uint16(1023), uint8(7))
	f.Add(uint64(2), uint16(0), uint16(23), uint8(0))
	f.Add(uint64(3), uint16(1099), uint16(16), uint8(4))
	f.Add(uint64(37), uint16(1103), uint16(0), uint8(96)) // a chain that underflows to −0, then meets a +0 activation
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

// TestPackRowsGathersTranspose pins the LM head's packing: PackRows fed the columns of m,
// the way model.New gathers embedᵀ from embed, holds mᵀ — element (j, i) =
// m(i, j) at panel i/16, offset j·16 + i mod 16, the ragged last panel
// zero-padded — the same panels as packing a transposed copy.
func TestPackRowsGathersTranspose(t *testing.T) {
	m := testMatrix(37, 9, 3)
	pT := PackRows(m.Cols, m.Rows, func(j int, row []float32) {
		for i := range row {
			row[i] = m.At(i, j)
		}
	})
	if pT.Rows != 9 || pT.Cols != 37 || pT.Panels() != 3 {
		t.Fatalf("packed transpose %dx%d in %d panels", pT.Rows, pT.Cols, pT.Panels())
	}
	for p := 0; p < pT.Panels(); p++ {
		for j := 0; j < pT.Rows; j++ {
			for c := 0; c < panelWidth; c++ {
				want := float32(0)
				if i := p*panelWidth + c; i < m.Rows {
					want = m.At(i, j)
				}
				if got := pT.data[(p*pT.Rows+j)*panelWidth+c]; got != want {
					t.Fatalf("panel %d row %d lane %d: %v, want %v", p, j, c, got, want)
				}
			}
		}
	}
	if !slices.Equal(pT.data, pack(Transpose(m)).data) {
		t.Fatal("column-fed PackRows differs from packing a transposed copy")
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
// inline math.Pow/Sincos path bit-for-bit across positions and dims, on every
// arm: whole vectors of pairs, ragged tails and dimensions below one vector.
func TestRoPECachedMatchesApplyRoPE(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, d := range []int{2, 4, 6, 16, 32, 48, 128} {
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
	})
}

// TestBatchedKernelsAllocFree pins the tile loop's entries — batched at every
// lane count 1–9 (every tile height, and a second group), ragged last panel,
// row-major — the batched norm, and the RoPE tables and rotation at the
// benchmark model's head dimension, at 0 allocations on every arm.
func TestBatchedKernelsAllocFree(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		const b = 9
		m := testMatrix(64, 64, 1)
		mT := Transpose(m)
		p, ragged := pack(m), pack(testMatrix(64, 24, 2))
		xs := benchLanes(b, 64)
		dst, dstRagged := newLanes(b, 64), newLanes(b, 24)
		gain := benchLanes(1, 64)[0]
		freqs := RoPEFreqs(32)
		sin := make([]float32, 16)
		cos := make([]float32, 16)
		if n := testing.AllocsPerRun(10, func() {
			for n := 1; n <= b; n++ {
				p.MulInto(dst[:n], xs[:n])
				MatTMatTransInto(dst[:n], xs[:n], m, mT)
			}
			p.MulPanelsInto(dst, xs, 1, 3)
			ragged.MulInto(dstRagged, xs)
			RMSNormRowsInto(dst, xs, gain, 1e-5)
			RoPESincosInto(sin, cos, freqs, 37)
			ApplyRoPECached(xs[0][:32], sin, cos)
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
// beside them. r1–r8 give every tile height a row: on the avx512 rows each is
// one group at its own height, r16 two full groups, r40 five and r72 nine.
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
			p, mT := pack(m), &Matrix{Rows: sh.cols, Cols: sh.rows}
			for _, r := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 40, 72} {
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
