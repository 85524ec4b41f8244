package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !almostEq(v, 4, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if s := StdDev(xs); !almostEq(s, 2, 1e-12) {
		t.Fatalf("std = %v", s)
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty mean/variance should be 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 50); !almostEq(got, 5, 1e-12) {
		t.Fatalf("interpolated median = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if q := e.Quantile(0.5); q != 2 {
		t.Fatalf("Quantile(0.5) = %v", q)
	}
	if q := e.Quantile(1); q != 3 {
		t.Fatalf("Quantile(1) = %v", q)
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		e := NewECDF(raw)
		prev := -1.0
		for x := -100.0; x <= 100; x += 7 {
			p := e.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	k := NewKDE([]float64{-1, 0, 1, 2, 5}, 0)
	// Trapezoidal integration over a wide range.
	lo, hi, n := -30.0, 30.0, 4000
	step := (hi - lo) / float64(n)
	sum := 0.0
	for i := 0; i <= n; i++ {
		x := lo + step*float64(i)
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * k.At(x)
	}
	sum *= step
	if !almostEq(sum, 1, 0.01) {
		t.Fatalf("KDE integral = %v", sum)
	}
}

func TestKDEPeaksNearData(t *testing.T) {
	k := NewKDE([]float64{0, 0, 0, 0}, 0.5)
	if k.At(0) <= k.At(3) {
		t.Fatal("KDE should peak at the data")
	}
}

func TestKDEEvaluateGrid(t *testing.T) {
	k := NewKDE([]float64{0}, 1)
	xs, ys := k.Evaluate(-1, 1, 3)
	if len(xs) != 3 || xs[0] != -1 || xs[2] != 1 {
		t.Fatalf("grid = %v", xs)
	}
	if ys[1] <= ys[0] {
		t.Fatal("center should have highest density")
	}
}
