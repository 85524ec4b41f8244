package tensor

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"math/big"
	"path/filepath"
	"strings"
	"testing"
)

// fmaOracle is x·y + z rounded once to float32 by math/big: the product and
// the sum are exact at 1024 bits (they span at most 2²⁵⁶ down to 2⁻²⁹⁸), and
// Float32 rounds to nearest even, subnormals and overflow included. Inputs
// that are not finite take IEEE's rules, which float64 arithmetic follows.
func fmaOracle(x, y, z float32) float32 {
	if !finite32(x) || !finite32(y) || !finite32(z) {
		return float32(float64(x)*float64(y) + float64(z))
	}
	const prec = 1024
	p := new(big.Float).SetPrec(prec).Mul(new(big.Float).SetPrec(prec).SetFloat64(float64(x)), big.NewFloat(float64(y)))
	s := new(big.Float).SetPrec(prec).Add(p, big.NewFloat(float64(z)))
	f, _ := s.Float32()
	return f
}

func finite32(v float32) bool { return !math.IsInf(float64(v), 0) && !math.IsNaN(float64(v)) }

// checkFMA32 fails t unless FMA32(x, y, z) has the oracle's bits (any NaN
// matches any NaN).
func checkFMA32(t *testing.T, x, y, z float32) {
	t.Helper()
	got, want := FMA32(x, y, z), fmaOracle(x, y, z)
	if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
		t.Fatalf("FMA32(%g, %g, %g) [%#x %#x %#x] = %g (%#x), want %g (%#x)", x, y, z,
			math.Float32bits(x), math.Float32bits(y), math.Float32bits(z), got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// TestFMA32MatchesBig pins the specification to the math/big oracle: the
// triples a second rounding gets wrong, signed zeros, subnormal results,
// overflow, non-finite inputs, then random triples over every exponent and
// near-cancellations (z within a few ulps of −x·y).
func TestFMA32MatchesBig(t *testing.T) {
	a := float32(1 + 1.0/4096)
	tiny := float32(math.Ldexp(1, -80))
	// (1+2⁻¹²)² = 1 + 2⁻¹¹ + 2⁻²⁴ sits exactly halfway between two float32s;
	// the ∓2⁻⁸⁰ decides which way it rounds. float64 cannot hold the 2⁻⁸⁰, so
	// float32(math.FMA(…)) — the float64 sum rounded again — sees a tie and
	// rounds to even, −1.000488281 where the answer is −1.0004884.
	for _, sign := range []float32{1, -1} {
		x, y, z := a, -sign*a, -sign*tiny
		want := sign * -float32(1+1.0/2048+1.0/(1<<23))
		if got := FMA32(x, y, z); got != want {
			t.Fatalf("FMA32(%g, %g, %g) = %.10g, want %.10g", x, y, z, got, want)
		}
		if twice := float32(math.FMA(float64(x), float64(y), float64(z))); twice == want {
			t.Fatalf("float32(math.FMA) got the double-rounding triple right: the triple no longer tells")
		}
		checkFMA32(t, x, y, z)
	}

	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	sub := math.Float32frombits(1) // the smallest subnormal
	specials := []struct{ x, y, z, want float32 }{
		{0, 1, negZero, 0}, {negZero, 1, negZero, negZero}, {negZero, 1, 0, 0}, {0, -1, 0, 0},
		{1, 1, -1, 0}, {-1, 1, 1, 0}, {negZero, negZero, negZero, 0},
		{math.MaxFloat32, 2, 0, inf}, {math.MaxFloat32, -2, 0, -inf},
		{math.MaxFloat32, 1, math.MaxFloat32, inf}, {math.MaxFloat32, 2, -math.MaxFloat32, math.MaxFloat32},
		{sub, 0.5, 0, 0}, {sub, 0.75, 0, sub}, {sub, -0.5, 0, negZero}, {float32(math.Ldexp(1, -74)), float32(math.Ldexp(1, -75)), 0, sub},
		{inf, 1, 1, inf}, {1, 1, -inf, -inf}, {inf, -1, inf, nan}, {inf, 0, 1, nan}, {nan, 1, 1, nan}, {1, 1, nan, nan},
	}
	for _, s := range specials {
		got := FMA32(s.x, s.y, s.z)
		if math.Float32bits(got) != math.Float32bits(s.want) && !(got != got && s.want != s.want) {
			t.Fatalf("FMA32(%g, %g, %g) = %g (%#x), want %g (%#x)", s.x, s.y, s.z, got, math.Float32bits(got), s.want, math.Float32bits(s.want))
		}
		checkFMA32(t, s.x, s.y, s.z)
	}

	next := lcg(25)
	bits := func() float32 { // any finite float32, every exponent alike
		for {
			if v := math.Float32frombits(uint32(next()<<1 ^ next())); finite32(v) {
				return v
			}
		}
	}
	near := func() float32 { // mantissa random, exponent within 2⁻²⁰..2²⁰
		v := float32(math.Ldexp(1+float64(next()%(1<<23))/(1<<23), int(next()%41)-20))
		if next()%2 == 0 {
			return -v
		}
		return v
	}
	for i := 0; i < 100000; i++ {
		checkFMA32(t, bits(), bits(), bits())
		x, y := near(), near()
		checkFMA32(t, x, y, near())
		// Near-cancellation: z = −round(x·y), stepped a few ulps either way.
		z := -(x * y)
		zb := math.Float32bits(z) + uint32(int32(next()%7)-3)
		checkFMA32(t, x, y, math.Float32frombits(zb))
		// Subnormal range: products near 2⁻¹⁴⁹.
		checkFMA32(t, float32(math.Ldexp(float64(x), -64)), float32(math.Ldexp(float64(y), -64)), float32(math.Ldexp(float64(near()), -130)))
	}
}

// FuzzFMA32 lets the fuzzer pick the raw bits of the three operands: FMA32
// must match the math/big oracle.
func FuzzFMA32(f *testing.F) {
	f.Add(uint32(0x3f800800), uint32(0xbf800800), uint32(0x97800000)) // the double-rounding triple
	f.Add(uint32(0x7f7fffff), uint32(0x40000000), uint32(0xff7fffff))
	f.Add(uint32(0x00000001), uint32(0x3f400000), uint32(0x80000000))
	f.Fuzz(func(t *testing.T, x, y, z uint32) {
		checkFMA32(t, math.Float32frombits(x), math.Float32frombits(y), math.Float32frombits(z))
	})
}

// TestFMAArmsMatchSpec pins Dot, AXPY and MatVecInto under every arm to
// chains of FMA32 written out: every length 0–40 (each ragged tail after 0–5
// vector groups) and two longer ones, alpha 1 and not, planted zeros and
// subnormals, and 1–17 rows (eight-row groups and the single rows after them).
func TestFMAArmsMatchSpec(t *testing.T) {
	eachArm(t, func(t *testing.T) {
		next := lcg(7)
		draw := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				if r := next(); r%11 == 0 {
					v[i] = attnPlanted[next()%uint64(len(attnPlanted))]
				} else {
					v[i] = float32(int64(r%2001)-1000) / 499
				}
			}
			return v
		}
		lengths := []int{64, 257}
		for n := range 41 {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			a, b := draw(n), draw(n)
			var want float32
			for i := range a {
				want = FMA32(a[i], b[i], want)
			}
			sameFloats(t, fmt.Sprintf("Dot n=%d", n), []float32{Dot(a, b)}, []float32{want})

			for _, alpha := range []float32{1, -0.37, 3e-39} {
				got, wantY := draw(n), make([]float32, n)
				for i := range got {
					wantY[i] = FMA32(alpha, a[i], got[i])
				}
				AXPY(got, alpha, a)
				sameFloats(t, fmt.Sprintf("AXPY n=%d alpha=%g", n, alpha), got, wantY)
			}

			if n == 0 {
				continue
			}
			for rows := 1; rows <= 17; rows++ {
				m := &Matrix{Rows: rows, Cols: n, Data: draw(rows * n)}
				got, wantV := make([]float32, rows), make([]float32, rows)
				for r := range wantV {
					for i, v := range b {
						wantV[r] = FMA32(m.Data[r*n+i], v, wantV[r])
					}
				}
				MatVecInto(got, m, b)
				sameFloats(t, fmt.Sprintf("MatVecInto %dx%d", rows, n), got, wantV)
			}
		}
	})
}

// TestNoImplicitMultiplyAdd keeps every float product of the inference
// packages' non-test files from being an operand of +, -, += or -= unless it
// sits under an explicit conversion: the Go spec lets a build fuse x*y + z
// into one FMA (arm64 does), which would round once where amd64 rounds twice.
// Accumulation chains call FMA32 instead; the rest (RMSNorm's sixteen chains
// of squares and its scale pass, RoPE, the dequantizer, Exp32) round each
// product by a float32(…), and their assembly arms by a VMULPS before the
// VADDPS, VSUBPS or VADDSUBPS, never an FMA (FuzzRMSNormMatchesSpec,
// FuzzRoPEMatchesSpec and FuzzExp32MatchesGo hold the arms to them). The scan
// is syntactic over typed expressions: a product stored in a variable and
// added in a later statement is not seen. It first proves itself on a planted
// source.
func TestNoImplicitMultiplyAdd(t *testing.T) {
	const planted = `package p
func f(a, b, s float32, i, j int) float32 {
	s += a * b
	s -= (a * b)
	s = s + a*b*2
	s = float32(a*b) + s
	s += float32(a * b)
	i += i * j
	return s - float32(i*j) - a*b
}`
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil) // shared: each dependency is checked once
	file, err := parser.ParseFile(fset, "planted.go", planted, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := implicitMultiplyAdds(t, fset, imp, "p", []*ast.File{file}); len(got) != 4 {
		t.Fatalf("planted source: found %d implicit multiply-adds, want 4: %v", len(got), got)
	}

	for _, dir := range []string{".", "../model", "../kvcache"} {
		pkgs, err := parser.ParseDir(fset, filepath.FromSlash(dir), func(fi fs.FileInfo) bool {
			ok, err := build.Default.MatchFile(filepath.FromSlash(dir), fi.Name()) // this build's files only
			return err == nil && ok && !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package to scan", dir)
		}
		for name, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			for _, pos := range implicitMultiplyAdds(t, fset, imp, name, files) {
				t.Errorf("%s: a float product added without a conversion — use FMA32, or round it with float32(…)", pos)
			}
		}
	}
}

// implicitMultiplyAdds type-checks files and returns the position of every
// float-typed * that is the operand (through parentheses) of a binary + or -
// or the right side of += or -=.
func implicitMultiplyAdds(t *testing.T, fset *token.FileSet, imp types.Importer, name string, files []*ast.File) []string {
	t.Helper()
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(name, fset, files, info); err != nil {
		t.Fatal(err)
	}
	var found []string
	floatMul := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		if m, ok := e.(*ast.BinaryExpr); ok && m.Op == token.MUL {
			if b, ok := info.Types[m].Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				found = append(found, fset.Position(m.OpPos).String())
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					floatMul(n.X)
					floatMul(n.Y)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					floatMul(n.Rhs[0])
				}
			}
			return true
		})
	}
	return found
}
