package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("got %d collisions between distinct seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first output")
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream repeated values: %d unique of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v not near 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v not near 1", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(9)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("exponential(2) mean %v not near 0.5", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(12)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("log-normal produced non-positive %v", v)
		}
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := New(14)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight class sampled %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %v not near 3", ratio)
	}
}

// Property: Float64 always in [0,1) regardless of seed.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed, same stream — across all seeds.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// historicalPair is the polar method's candidate loop as NormFloat64 wrote it
// before Polar existed: one accepted (u, s) pair, drawn through Float64.
func historicalPair(r *RNG) (u, s float64) {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u, s
		}
	}
}

// TestPolarMatchesCandidateLoop pins the batched fill to the per-draw loop for
// ragged n around the transform's 8-lane groups and across many rejections:
// the same pairs by bits, in the same order, and the generator left in the
// same state.
func TestPolarMatchesCandidateLoop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 511, 512, 513, 65539} {
		got, want := New(uint64(n)+3), New(uint64(n)+3)
		u, s := make([]float64, n), make([]float64, n)
		got.Polar(u, s)
		for i := range u {
			wu, ws := historicalPair(want)
			if math.Float64bits(u[i]) != math.Float64bits(wu) || math.Float64bits(s[i]) != math.Float64bits(ws) {
				t.Fatalf("n=%d pair %d: (%v, %v), want (%v, %v)", n, i, u[i], s[i], wu, ws)
			}
		}
		if got.s != want.s {
			t.Fatalf("n=%d: state %x after the fill, want %x", n, got.s, want.s)
		}
	}
}

// TestNormFloat64Stream pins the first 100 000 NormFloat64 draws at the
// benchmark model's seed, and the generator's next output after them, to the
// values the original one-draw-at-a-time implementation produced: a change
// to the xoshiro step, the uniform mapping or the accept test shows here.
func TestNormFloat64Stream(t *testing.T) {
	r := New(20250927)
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 100000; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.NormFloat64()))
		h.Write(b[:])
	}
	if got, next := h.Sum64(), r.Uint64(); got != 0xfad61e436c6603a7 || next != 0xd9e651b8994730d5 {
		t.Fatalf("stream digest %#x then %#x, want 0xfad61e436c6603a7 then 0xd9e651b8994730d5", got, next)
	}
}

func TestPolarPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Polar(make([]float64, 2), make([]float64, 1))
}

func TestNormFloat64DoesNotAllocate(t *testing.T) {
	r := New(1)
	if n := testing.AllocsPerRun(100, func() { r.NormFloat64() }); n != 0 {
		t.Fatalf("NormFloat64 allocates %v times per call", n)
	}
}

// BenchmarkPolar prices the uniform half alone: ns per accepted pair.
func BenchmarkPolar(b *testing.B) {
	r := New(1)
	u, s := make([]float64, 1024), make([]float64, 1024)
	for b.Loop() {
		r.Polar(u, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/pair")
}
