package stats

// LinearModel is an ordinary-least-squares linear regression y = w·x + b,
// fit by gradient descent. It backs the throughput predictor's residual
// correction on top of the profile-table interpolation.
type LinearModel struct {
	Weights []float64
	Bias    float64
}

// FitLinear fits a linear model to the rows of X against y using full-batch
// gradient descent with feature standardization folded into the weights.
// It panics if dimensions are inconsistent or X is empty.
func FitLinear(X [][]float64, y []float64, epochs int, lr float64) *LinearModel {
	if len(X) == 0 || len(X) != len(y) {
		panic("stats: FitLinear dimension mismatch")
	}
	d := len(X[0])
	// Standardize features for stable descent.
	mu := make([]float64, d)
	sd := make([]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(X))
		for i := range X {
			col[i] = X[i][j]
		}
		mu[j] = Mean(col)
		sd[j] = StdDev(col)
		if sd[j] == 0 {
			sd[j] = 1
		}
	}
	w := make([]float64, d)
	b := Mean(y)
	n := float64(len(X))
	for e := 0; e < epochs; e++ {
		gw := make([]float64, d)
		gb := 0.0
		for i := range X {
			pred := b
			for j := 0; j < d; j++ {
				pred += w[j] * (X[i][j] - mu[j]) / sd[j]
			}
			err := pred - y[i]
			for j := 0; j < d; j++ {
				gw[j] += err * (X[i][j] - mu[j]) / sd[j]
			}
			gb += err
		}
		for j := 0; j < d; j++ {
			w[j] -= lr * gw[j] / n
		}
		b -= lr * gb / n
	}
	// Fold standardization back into raw-space weights.
	raw := make([]float64, d)
	bias := b
	for j := 0; j < d; j++ {
		raw[j] = w[j] / sd[j]
		bias -= w[j] * mu[j] / sd[j]
	}
	return &LinearModel{Weights: raw, Bias: bias}
}

// Predict evaluates the model at x.
func (m *LinearModel) Predict(x []float64) float64 {
	p := m.Bias
	for j, w := range m.Weights {
		p += w * x[j]
	}
	return p
}

// BilinearTable is a 2-D lookup table with bilinear interpolation over an
// irregular grid, used by the throughput predictor to interpolate profiled
// attention-operator latencies across (batch size, sequence length).
type BilinearTable struct {
	Xs, Ys []float64 // strictly increasing grid coordinates
	Z      [][]float64
}

// NewBilinearTable constructs a table; Z[i][j] is the value at (Xs[i], Ys[j]).
// It panics on inconsistent dimensions or non-increasing grids.
func NewBilinearTable(xs, ys []float64, z [][]float64) *BilinearTable {
	if len(z) != len(xs) {
		panic("stats: table row count mismatch")
	}
	for _, row := range z {
		if len(row) != len(ys) {
			panic("stats: table column count mismatch")
		}
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			panic("stats: xs not strictly increasing")
		}
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			panic("stats: ys not strictly increasing")
		}
	}
	return &BilinearTable{Xs: xs, Ys: ys, Z: z}
}

func bracket(grid []float64, v float64) (int, float64) {
	n := len(grid)
	if v <= grid[0] {
		return 0, 0
	}
	if v >= grid[n-1] {
		return n - 2, 1
	}
	lo := 0
	for lo+1 < n && grid[lo+1] < v {
		lo++
	}
	frac := (v - grid[lo]) / (grid[lo+1] - grid[lo])
	return lo, frac
}

// At interpolates the table at (x, y), clamping outside the grid.
func (t *BilinearTable) At(x, y float64) float64 {
	if len(t.Xs) == 1 && len(t.Ys) == 1 {
		return t.Z[0][0]
	}
	if len(t.Xs) == 1 {
		j, fy := bracket(t.Ys, y)
		return t.Z[0][j]*(1-fy) + t.Z[0][j+1]*fy
	}
	if len(t.Ys) == 1 {
		i, fx := bracket(t.Xs, x)
		return t.Z[i][0]*(1-fx) + t.Z[i+1][0]*fx
	}
	i, fx := bracket(t.Xs, x)
	j, fy := bracket(t.Ys, y)
	z00 := t.Z[i][j]
	z01 := t.Z[i][j+1]
	z10 := t.Z[i+1][j]
	z11 := t.Z[i+1][j+1]
	return z00*(1-fx)*(1-fy) + z10*fx*(1-fy) + z01*(1-fx)*fy + z11*fx*fy
}
