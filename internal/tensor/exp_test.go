package tensor

import (
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// expSweep is a strided walk over every float32 bit pattern in ascending
// value order — −Inf up to −0, then +0 up to +Inf, ≈ 32 k points; the prime
// stride varies the low mantissa bits.
func expSweep() []float32 {
	const stride = 131071
	var xs []float32
	for b := uint32(0xFF800000); b >= 0x80000000; b -= stride {
		xs = append(xs, math.Float32frombits(b))
	}
	for b := uint32(0); b <= 0x7F800000; b += stride {
		xs = append(xs, math.Float32frombits(b))
	}
	return xs
}

// sameFloats compares element-wise by bits. A NaN matches any NaN: which
// payload a two-NaN product keeps is the instruction's operand order, not
// arithmetic (Exp32 and Softmax never produce one; SiLU of a NaN does).
func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s [%d of %d]: %g (%#x) != %g (%#x)", what, i, len(want), g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// checkExpArms asserts that the selected implementation of expSub, Softmax,
// SiLU and SiLUMul computes, for xs (and up, same length), exactly what the
// element-wise Exp32 expressions compute — run it under eachArm.
func checkExpArms(t *testing.T, xs, up []float32, sub float32) {
	t.Helper()
	what := fmt.Sprintf("n=%d arm=%s", len(xs), armNames[arm])
	want := make([]float32, len(xs))
	got := append([]float32(nil), xs...)
	for i, v := range xs {
		want[i] = Exp32(v - sub)
	}
	expSub(got, sub)
	sameFloats(t, what+" expSub", got, want)

	if len(xs) > 0 {
		maxV := xs[0]
		for _, v := range xs[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for i, v := range xs {
			want[i] = Exp32(v - maxV)
			sum += want[i]
		}
		for i := range want {
			want[i] *= 1 / sum
		}
	}
	copy(got, xs)
	Softmax(got)
	sameFloats(t, what+" Softmax", got, want)

	for i, v := range xs {
		want[i] = v / (1 + Exp32(-v))
	}
	copy(got, xs)
	ones := make([]float32, len(xs))
	for i := range ones {
		ones[i] = 1
	}
	SiLUMul(got, ones)
	sameFloats(t, what+" SiLU", got, want)
	for i := range want {
		want[i] *= up[i]
	}
	copy(got, xs)
	SiLUMul(got, up)
	sameFloats(t, what+" SiLUMul", got, want)
}

// TestExp32Accuracy pins the specification's stated properties on the sweep
// and on the special inputs, and the AVX2 arm to the specification's bits on
// both.
func TestExp32Accuracy(t *testing.T) {
	xs := expSweep()
	floor := Exp32(float32(math.Inf(-1)))
	var worst float64
	prev := floor
	for _, x := range xs {
		e := Exp32(x)
		if !(e >= math.Float32frombits(0x00800000)) || e > math.MaxFloat32 {
			t.Fatalf("Exp32(%g) = %g: not a normal positive float32", x, e)
		}
		if e < prev {
			t.Fatalf("Exp32(%g) = %g below its predecessor's %g", x, e, prev)
		}
		prev = e
		if x <= 0 && e > 1 {
			t.Fatalf("Exp32(%g) = %g > 1", x, e)
		}
		if x >= expLo && x <= expHi {
			ref := math.Exp(float64(x))
			worst = math.Max(worst, math.Abs(float64(e)-ref)/ref)
		}
	}
	// The worst input of all 2³² (found by a one-off exhaustive run): 0.684·2⁻²³.
	ref := math.Exp(float64(float32(15.596843)))
	worst = math.Max(worst, math.Abs(float64(Exp32(15.596843))-ref)/ref)
	const bound = 1.0 / (1 << 23)
	if worst > bound || worst < 0.68*bound {
		t.Fatalf("max relative error %.3f·2⁻²³ against math.Exp, want in [0.68, 1]", worst/bound)
	}

	negZero := float32(math.Copysign(0, -1))
	specials := []struct {
		x, want float32
	}{
		{0, 1}, {negZero, 1},
		{math.SmallestNonzeroFloat32, 1}, {-3e-42, 1},
		{float32(math.Inf(-1)), Exp32(expLo)}, {-math.MaxFloat32, Exp32(expLo)},
		{float32(math.Inf(1)), Exp32(expHi)}, {math.MaxFloat32, Exp32(expHi)},
		{float32(math.NaN()), Exp32(expLo)}, {math.Float32frombits(0xFFC00001), Exp32(expLo)},
		{1, float32(math.E)},
	}
	for _, s := range specials {
		if got := Exp32(s.x); math.Float32bits(got) != math.Float32bits(s.want) {
			t.Errorf("Exp32(%g) = %g (%#x), want %g (%#x)", s.x, got, math.Float32bits(got), s.want, math.Float32bits(s.want))
		}
		xs = append(xs, s.x)
	}
	for b := uint32(0x7F800001); b < 0x80000000; b += 40009 { // every NaN is the low clamp
		nan := math.Float32frombits(b)
		if Exp32(nan) != floor || Exp32(-nan) != floor {
			t.Fatalf("Exp32(NaN %#x) is not the low clamp's %g", b, floor)
		}
	}

	eachArm(t, func(t *testing.T) {
		for _, sub := range []float32{0, negZero, 3.25, float32(math.Inf(1)), float32(math.NaN())} {
			checkExpArms(t, xs, xs, sub)
		}
	})
}

// TestOneExpInInferencePath keeps Exp32 the only exponential a forward pass
// can reach: no non-test file of the three inference packages may call
// math.Exp (or Exp2 / Expm1) — a second exp would split the token streams the
// path-vs-path bit-identity tests hold together.
func TestOneExpInInferencePath(t *testing.T) {
	for _, dir := range []string{".", "../model", "../core"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.FromSlash(dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package to scan", dir)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "math" && strings.HasPrefix(sel.Sel.Name, "Exp") {
							t.Errorf("%s: math.%s — the inference path's one exp is tensor.Exp32", fset.Position(sel.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}

// fuzzFloats reads n float32 bit patterns out of raw, cycling through it.
func fuzzFloats(raw []byte, n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		var b [4]byte
		for j := range b {
			if len(raw) > 0 {
				b[j] = raw[(4*i+j)%len(raw)]
			}
		}
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return xs
}

// FuzzExp32MatchesGo lets the fuzzer pick raw float32 bits, the subtrahend's
// bits and a length in 0–40 (every ragged tail after 0–5 vector groups): both
// implementations of expSub, Softmax, SiLU and SiLUMul must match the pure-Go
// specification bit for bit.
func FuzzExp32MatchesGo(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f}, uint8(8), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0x80, 0x7f, 1, 0, 0, 0}, uint8(19), uint32(0x42ae0000))
	f.Add([]byte{0x17, 0xac, 0xae, 0xc2, 0x4f, 0xc0, 0xb0, 0x42}, uint8(40), uint32(0x80000000))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, sub uint32) {
		xs := fuzzFloats(raw, int(n)%41)
		up := fuzzFloats(append([]byte{byte(n)}, raw...), len(xs))
		eachArm(t, func(t *testing.T) { checkExpArms(t, xs, up, math.Float32frombits(sub)) })
	})
}

// BenchmarkSoftmax and BenchmarkSiLU price the two element-wise passes that
// call Exp32 — a decode step's attention weights over 128 and 1024 cached
// tokens, the FFN's gated activation at the benchmark model's width — under
// both implementations.
func BenchmarkSoftmax(b *testing.B) {
	benchExpArms(b, func(xs, _ []float32) { Softmax(xs) })
}

func BenchmarkSiLU(b *testing.B) {
	benchExpArms(b, func(xs, up []float32) { SiLUMul(xs, up) })
}

func benchExpArms(b *testing.B, f func(xs, up []float32)) {
	selected := arm
	defer func() { arm = selected }()
	for _, level := range []armLevel{armGo, armAVX2} {
		if level > selected {
			continue
		}
		for _, n := range []int{128, 1024} {
			src, up, xs := lanes(1, n, 7)[0], lanes(1, n, 8)[0], make([]float32, n)
			b.Run(fmt.Sprintf("%s/n%d", armNames[level], n), func(b *testing.B) {
				arm = level
				for b.Loop() {
					copy(xs, src)
					f(xs, up)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
