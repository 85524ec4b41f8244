package stats

import (
	"math"
	"testing"

	"rethinkkv/internal/rng"
)

func TestFitLinearRecoversPlane(t *testing.T) {
	r := rng.New(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x0 := r.Float64() * 10
		x1 := r.Float64() * 5
		X = append(X, []float64{x0, x1})
		y = append(y, 3*x0-2*x1+7)
	}
	m := FitLinear(X, y, 3000, 0.1)
	if math.Abs(m.Weights[0]-3) > 0.05 || math.Abs(m.Weights[1]+2) > 0.05 {
		t.Fatalf("weights = %v", m.Weights)
	}
	if math.Abs(m.Bias-7) > 0.2 {
		t.Fatalf("bias = %v", m.Bias)
	}
	if p := m.Predict([]float64{2, 1}); math.Abs(p-11) > 0.3 {
		t.Fatalf("predict = %v, want 11", p)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := rng.New(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		x := r.Float64() * 100
		X = append(X, []float64{x})
		y = append(y, 0.5*x+r.NormFloat64())
	}
	m := FitLinear(X, y, 2000, 0.1)
	if math.Abs(m.Weights[0]-0.5) > 0.02 {
		t.Fatalf("slope = %v", m.Weights[0])
	}
}

func TestFitLinearPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitLinear([][]float64{{1}}, []float64{1, 2}, 10, 0.1)
}

func TestBilinearTableExact(t *testing.T) {
	tab := NewBilinearTable(
		[]float64{1, 2},
		[]float64{10, 20},
		[][]float64{{1, 2}, {3, 4}},
	)
	// Grid points are exact.
	if v := tab.At(1, 10); v != 1 {
		t.Fatalf("At(1,10) = %v", v)
	}
	if v := tab.At(2, 20); v != 4 {
		t.Fatalf("At(2,20) = %v", v)
	}
	// Center interpolates to the mean of corners.
	if v := tab.At(1.5, 15); math.Abs(v-2.5) > 1e-12 {
		t.Fatalf("center = %v", v)
	}
	// Clamping outside the grid.
	if v := tab.At(0, 5); v != 1 {
		t.Fatalf("clamped = %v", v)
	}
	if v := tab.At(99, 99); v != 4 {
		t.Fatalf("clamped hi = %v", v)
	}
}

func TestBilinearTableDegenerate(t *testing.T) {
	single := NewBilinearTable([]float64{1}, []float64{1}, [][]float64{{42}})
	if v := single.At(7, -3); v != 42 {
		t.Fatalf("1x1 table = %v", v)
	}
	row := NewBilinearTable([]float64{1}, []float64{0, 10}, [][]float64{{0, 100}})
	if v := row.At(1, 5); math.Abs(v-50) > 1e-12 {
		t.Fatalf("1xN interp = %v", v)
	}
	col := NewBilinearTable([]float64{0, 10}, []float64{1}, [][]float64{{0}, {100}})
	if v := col.At(5, 1); math.Abs(v-50) > 1e-12 {
		t.Fatalf("Nx1 interp = %v", v)
	}
}

func TestBilinearTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing grid")
		}
	}()
	NewBilinearTable([]float64{2, 1}, []float64{1}, [][]float64{{1}, {2}})
}
