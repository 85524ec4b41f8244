package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"rethinkkv/internal/rng"
)

func TestMatVecVecMat(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	mv := make([]float32, 3)
	MatVecInto(mv, m, []float32{1, 1})
	if mv[0] != 3 || mv[1] != 7 || mv[2] != 11 {
		t.Fatalf("matvec = %v", mv)
	}
	vm := make([]float32, 2)
	VecMatInto(vm, []float32{1, 0, 1}, m)
	if vm[0] != 6 || vm[1] != 8 {
		t.Fatalf("vecmat = %v", vm)
	}
}

func TestDotAXPYScale(t *testing.T) {
	if d := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); d != 32 {
		t.Fatalf("dot = %v", d)
	}
	dst := []float32{1, 1}
	AXPY(dst, 2, []float32{3, 4})
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("axpy = %v", dst)
	}
	Scale(dst, 0.5)
	if dst[0] != 3.5 || dst[1] != 4.5 {
		t.Fatalf("scale = %v", dst)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	xs := []float32{1, 2, 3, 4}
	Softmax(xs)
	var sum float32
	for i, v := range xs {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax[%d] = %v out of (0,1)", i, v)
		}
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
	// Monotone: larger logit, larger probability.
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("softmax not monotone")
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	xs := []float32{1000, 1001, 1002}
	Softmax(xs)
	var sum float32
	for _, v := range xs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed")
		}
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestSoftmaxTempSharpens(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{1, 2}
	SoftmaxTemp(a, 0.5) // sharper
	SoftmaxTemp(b, 2.0) // flatter
	if a[1] <= b[1] {
		t.Fatalf("low temperature should sharpen: %v vs %v", a[1], b[1])
	}
}

func TestQuickSoftmaxSumsToOne(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			// Clamp to a realistic logit range.
			xs[i] = float32(math.Max(-50, math.Min(50, float64(v))))
		}
		Softmax(xs)
		var sum float64
		for _, v := range xs {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRMSNorm(t *testing.T) {
	gain := []float32{1, 1, 1, 1}
	x := []float32{2, 2, 2, 2}
	out := RMSNorm(x, gain, 1e-6)
	for _, v := range out {
		if math.Abs(float64(v)-1) > 1e-3 {
			t.Fatalf("rmsnorm = %v", out)
		}
	}
	// Scale invariance: RMSNorm(c*x) == RMSNorm(x).
	x2 := []float32{20, 20, 20, 20}
	out2 := RMSNorm(x2, gain, 1e-6)
	for i := range out {
		if math.Abs(float64(out[i]-out2[i])) > 1e-3 {
			t.Fatal("rmsnorm not scale invariant")
		}
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	r := rng.New(2)
	x := make([]float32, 8)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	orig := append([]float32(nil), x...)
	var n0 float64
	for _, v := range orig {
		n0 += float64(v * v)
	}
	ApplyRoPE(x, 17)
	var n1 float64
	for _, v := range x {
		n1 += float64(v * v)
	}
	if math.Abs(n0-n1) > 1e-4*n0+1e-9 {
		t.Fatalf("RoPE changed norm: %v -> %v", n0, n1)
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	orig := append([]float32(nil), x...)
	ApplyRoPE(x, 0)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("RoPE at pos 0 should be identity")
		}
	}
}

func TestRoPERelativeProperty(t *testing.T) {
	// RoPE's defining property: dot(R(q,m), R(k,n)) depends only on m-n.
	q := []float32{0.3, -0.7, 1.1, 0.2}
	k := []float32{-0.5, 0.9, 0.1, -0.4}
	dotAt := func(m, n int) float64 {
		qq := append([]float32(nil), q...)
		kk := append([]float32(nil), k...)
		ApplyRoPE(qq, m)
		ApplyRoPE(kk, n)
		return float64(Dot(qq, kk))
	}
	d1 := dotAt(5, 3)
	d2 := dotAt(12, 10)
	if math.Abs(d1-d2) > 1e-4 {
		t.Fatalf("RoPE relative property violated: %v vs %v", d1, d2)
	}
}

func TestSiLU(t *testing.T) {
	xs := []float32{0, 10, -10}
	SiLUMul(xs, []float32{1, 1, 1})
	if xs[0] != 0 {
		t.Fatalf("silu(0) = %v", xs[0])
	}
	if math.Abs(float64(xs[1])-10) > 0.01 {
		t.Fatalf("silu(10) = %v", xs[1])
	}
	if math.Abs(float64(xs[2])) > 0.01 {
		t.Fatalf("silu(-10) = %v", xs[2])
	}
}

func TestArgmaxTopK(t *testing.T) {
	xs := []float32{3, 1, 4, 1, 5, 9, 2, 6}
	if Argmax(xs) != 5 {
		t.Fatalf("argmax = %d", Argmax(xs))
	}
	if Argmax(nil) != -1 {
		t.Fatal("argmax(empty) != -1")
	}
}

func TestDistances(t *testing.T) {
	if c := CosineSim([]float32{1, 0}, []float32{1, 0}); math.Abs(c-1) > 1e-9 {
		t.Fatalf("cos parallel = %v", c)
	}
	if c := CosineSim([]float32{1, 0}, []float32{0, 1}); math.Abs(c) > 1e-9 {
		t.Fatalf("cos orthogonal = %v", c)
	}
	if c := CosineSim([]float32{0, 0}, []float32{1, 1}); c != 0 {
		t.Fatalf("cos zero vector = %v", c)
	}
}

// randVec fills a deterministic pseudo-random vector without importing rng.
func randVec(n int, seed float32) []float32 {
	v := make([]float32, n)
	x := seed
	for i := range v {
		x = x*1103.515245 + 12.345
		x -= float32(int(x/97)) * 97
		v[i] = x/48.5 - 1
	}
	return v
}

// vecMatRef is the row-major formulation of vᵀ × m with the zero-skip — the
// reference arithmetic VecMatInto's column-major register loop must match.
func vecMatRef(v []float32, m *Matrix) []float32 {
	out := make([]float32, m.Cols)
	for k, vv := range v {
		if vv == 0 {
			continue
		}
		AXPY(out, vv, m.Row(k))
	}
	return out
}

func TestIntoVariantsBitIdentical(t *testing.T) {
	// Odd sizes exercise the remainder lanes of the 4-wide kernels.
	for _, shape := range [][2]int{{4, 4}, {5, 7}, {16, 64}, {13, 130}} {
		rows, cols := shape[0], shape[1]
		m := NewMatrix(rows, cols)
		copy(m.Data, randVec(rows*cols, float32(rows)))
		v := randVec(cols, 3)
		u := randVec(rows, 5)
		gain := randVec(rows, 9)

		want := make([]float32, rows)
		for i := range want {
			want[i] = Dot(m.Row(i), v) // MatVecInto's contract: per-row Dot
		}
		got := make([]float32, rows)
		MatVecInto(got, m, v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d MatVecInto[%d] = %v, want %v", rows, cols, i, got[i], want[i])
			}
		}

		wantVM := vecMatRef(u, m)
		gotVM := make([]float32, cols)
		for i := range gotVM {
			gotVM[i] = 99 // Into must fully overwrite
		}
		VecMatInto(gotVM, u, m)
		for i := range wantVM {
			if gotVM[i] != wantVM[i] {
				t.Fatalf("%dx%d VecMatInto[%d] = %v, want %v", rows, cols, i, gotVM[i], wantVM[i])
			}
		}

		wantN := RMSNorm(u, gain, 1e-5)
		gotN := make([]float32, rows)
		RMSNormInto(gotN, u, gain, 1e-5)
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("RMSNormInto[%d] mismatch", i)
			}
		}
	}
}

func TestVecMatIntoSkipsZeros(t *testing.T) {
	m := NewMatrix(3, 4)
	copy(m.Data, randVec(12, 2))
	u := []float32{0.5, 0, -1.25} // middle row skipped
	want := vecMatRef(u, m)
	got := make([]float32, 4)
	VecMatInto(got, u, m)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zero-skip mismatch at %d", i)
		}
	}
}

// oneQuery returns a block holding q alone, attending n tokens into out.
func oneQuery(q, out []float32, n int) *AttnBlock {
	b := NewAttnBlock(len(q), n)
	copy(b.Add(n, out), q)
	return b
}

// TestDotStridedMatchesDot pins the block's score pass over a flat, strided
// KV buffer (Full's layout: one page of n tokens) to Dot on per-token views.
func TestDotStridedMatchesDot(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 3, 4, 7, 64, 257} {
			d, stride := 16, 48
			q := randVec(d, 11)
			buf := randVec(maxTest(n*stride, 1), 13)
			b := oneQuery(q, make([]float32, d), n)
			b.Score(0, n, &Rows{F32: buf, Stride: stride})
			dst := b.Weights(0, n)
			if len(dst) != n {
				t.Fatalf("n=%d: %d scores", n, len(dst))
			}
			for i := 0; i < n; i++ {
				if want := Dot(q, buf[i*stride:i*stride+d]); dst[i] != want {
					t.Fatalf("n=%d entry %d: %v != %v", n, i, dst[i], want)
				}
			}
		}
	})
}

// TestAXPYStridedMatchesAXPY pins the block's value pass over a flat, strided
// KV buffer to the per-token AXPY loop, seeded with a non-zero output.
func TestAXPYStridedMatchesAXPY(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 5, 64, 100} {
			for _, d := range []int{3, 4, 16, 18} { // odd d exercises the ragged value panel
				stride := d + 7
				w := randVec(n, 17)
				buf := randVec(maxTest(n*stride, 1), 19)
				got := randVec(d, 23)
				want := append([]float32(nil), got...)
				b := oneQuery(make([]float32, d), got, n)
				copy(b.Weights(0, n), w)
				b.Accumulate(0, n, &Rows{F32: buf, Stride: stride})
				for i := 0; i < n; i++ {
					AXPY(want, w[i], buf[i*stride:i*stride+d])
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d d=%d lane %d: %v != %v", n, d, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// TestStridedPanics pins the block's contract checks: a row stride below the
// head dimension, a page shorter than the tokens asked of it (fp32 in place,
// fp32 copied, codes, parameters), a descending bound, a wrong output length
// and a seventeenth query.
func TestStridedPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	block := func() *AttnBlock { return oneQuery(make([]float32, 8), make([]float32, 8), 20) }
	eachArm(t, func(t *testing.T) {
		assertPanics("dot stride", func() { block().Score(0, 1, &Rows{F32: make([]float32, 8), Stride: 4}) })
		assertPanics("dot short", func() { block().Score(0, 3, &Rows{F32: make([]float32, 16), Stride: 8}) })
		assertPanics("dot short whole tile", func() { block().Score(0, 16, &Rows{F32: make([]float32, 15*8), Stride: 8}) })
		assertPanics("axpy stride", func() { block().Accumulate(0, 1, &Rows{F32: make([]float32, 8), Stride: 4}) })
		assertPanics("axpy short", func() { block().Accumulate(0, 3, &Rows{F32: make([]float32, 16), Stride: 8}) })
		assertPanics("codes short", func() {
			block().Score(0, 3, &Rows{Codes: make([]uint8, 16), Params: make([]uint16, 6), Bits: 8, Stride: 8, Heads: 1})
		})
		assertPanics("params short", func() {
			block().Accumulate(0, 3, &Rows{Codes: make([]uint8, 24), Params: make([]uint16, 4), Bits: 8, Stride: 8, Heads: 1})
		})
	})
	assertPanics("descending bound", func() { block().Add(19, make([]float32, 8)) })
	assertPanics("output length", func() { block().Add(20, make([]float32, 7)) })
	assertPanics("overflow", func() {
		b := block()
		for i := 0; i < AttnBlockMax; i++ {
			b.Add(20, make([]float32, 8))
		}
	})
}

func maxTest(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// The allocating norm and the inline rotation: what RMSNormInto and
// ApplyRoPECached are compared against.

// RMSNorm returns x normalized by its root-mean-square and scaled by gain,
// as used by LLaMA-family models. eps guards the division.
func RMSNorm(x, gain []float32, eps float32) []float32 {
	out := make([]float32, len(x))
	RMSNormInto(out, x, gain, eps)
	return out
}

// ApplyRoPE rotates the vector x (length must be even) in place by the
// rotary position embedding for the given absolute position, using the
// standard base-10000 frequency schedule over pairs (x[2i], x[2i+1]).
func ApplyRoPE(x []float32, pos int) {
	d := len(x)
	if d%2 != 0 {
		panic("tensor: RoPE requires even head dimension")
	}
	for i := 0; i < d; i += 2 {
		theta := float64(pos) * math.Pow(10000, -float64(i)/float64(d))
		sin, cos := math.Sincos(theta)
		a, b := x[i], x[i+1]
		x[i] = float32(a*float32(cos)) - float32(b*float32(sin)) // rounded like ApplyRoPECached on every build
		x[i+1] = float32(a*float32(sin)) + float32(b*float32(cos))
	}
}
