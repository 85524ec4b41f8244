package quant

import (
	"math"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
)

func cacheShape() kvcache.Shape { return kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 8} }

func appendRandom(c kvcache.Cache, n int, seed uint64) [][][]float32 {
	// Returns the appended layer-0/head-0 key history for verification.
	r := rng.New(seed)
	s := c.Shape()
	var hist [][][]float32
	for i := 0; i < n; i++ {
		var tok [][]float32
		for l := 0; l < s.Layers; l++ {
			k := make([][]float32, s.KVHeads)
			v := make([][]float32, s.KVHeads)
			for h := 0; h < s.KVHeads; h++ {
				k[h] = randVec(r, s.HeadDim)
				v[h] = randVec(r, s.HeadDim)
			}
			if l == 0 {
				tok = [][]float32{append([]float32(nil), k[0]...), append([]float32(nil), v[0]...)}
			}
			c.Append(l, k, v)
		}
		hist = append(hist, tok)
	}
	return hist
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestKIVIRetainsAllTokens(t *testing.T) {
	c := NewKIVI(cacheShape(), KIVIConfig{Bits: 4, GroupSize: 4, Residual: 8})
	appendRandom(c, 30, 1)
	if c.TotalAppended() != 30 {
		t.Fatalf("appended = %d", c.TotalAppended())
	}
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			if n := c.Len(l, h); n != 30 {
				t.Fatalf("len(%d,%d) = %d", l, h, n)
			}
			keys, vals := c.Seq(l, h)
			if len(keys) != 30 || len(vals) != 30 {
				t.Fatalf("seq lengths %d/%d", len(keys), len(vals))
			}
		}
	}
	pos := c.Positions(0, 0)
	if len(pos) != 30 || pos[29] != 29 {
		t.Fatalf("positions = %v", pos)
	}
}

func TestKIVIResidualWindowExact(t *testing.T) {
	cfg := KIVIConfig{Bits: 2, GroupSize: 4, Residual: 8}
	c := NewKIVI(cacheShape(), cfg)
	hist := appendRandom(c, 30, 2)
	keys, vals := c.Seq(0, 0)
	// The last Residual tokens must be bit-exact (full precision).
	for i := 30 - cfg.Residual; i < 30; i++ {
		if maxAbsDiff(keys[i], hist[i][0]) != 0 {
			t.Fatalf("residual key %d not exact", i)
		}
		if maxAbsDiff(vals[i], hist[i][1]) != 0 {
			t.Fatalf("residual value %d not exact", i)
		}
	}
	// Older tokens are quantised: close but generally not exact.
	var worst float64
	for i := 0; i < 8; i++ {
		worst = math.Max(worst, maxAbsDiff(keys[i], hist[i][0]))
	}
	if worst == 0 {
		t.Fatal("quantised region unexpectedly lossless (2-bit)")
	}
	if worst > 2.5 {
		t.Fatalf("quantised region error %v implausibly large", worst)
	}
}

func TestKIVICompressionRatioImprovesWithLowerBits(t *testing.T) {
	shape := cacheShape()
	c2 := NewKIVI(shape, KIVIConfig{Bits: 2, GroupSize: 4, Residual: 4})
	c4 := NewKIVI(shape, KIVIConfig{Bits: 4, GroupSize: 4, Residual: 4})
	appendRandom(c2, 200, 3)
	appendRandom(c4, 200, 3)
	r2, r4 := c2.CompressionRatio(), c4.CompressionRatio()
	if r2 <= r4 {
		t.Fatalf("2-bit ratio %v should exceed 4-bit %v", r2, r4)
	}
	if r4 <= 1.5 {
		t.Fatalf("4-bit ratio %v too low — accounting bug?", r4)
	}
	if c2.MemoryBytes() >= kvcache.FP16Bytes(shape, 200) {
		t.Fatal("compressed cache larger than FP16 baseline")
	}
}

func TestKIVIValidation(t *testing.T) {
	if err := (KIVIConfig{Bits: 0, GroupSize: 4, Residual: 4}).Validate(); err == nil {
		t.Fatal("expected bits error")
	}
	if err := (KIVIConfig{Bits: 4, GroupSize: 0, Residual: 4}).Validate(); err == nil {
		t.Fatal("expected group size error")
	}
	if err := DefaultKIVI(4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGEARRetainsAllTokens(t *testing.T) {
	c := NewGEAR(cacheShape(), GEARConfig{Bits: 4, GroupSize: 8, SparseFrac: 0.02, RankFrac: 0.1, PowerIters: 4})
	appendRandom(c, 25, 5)
	if c.Len(0, 0) != 25 || c.Len(1, 1) != 25 {
		t.Fatalf("len = %d", c.Len(0, 0))
	}
	keys, vals := c.Seq(0, 0)
	if len(keys) != 25 || len(vals) != 25 {
		t.Fatal("seq incomplete")
	}
}

func TestGEARErrorCorrectionHelps(t *testing.T) {
	// GEAR's whole point: outliers + low-rank correction beat plain
	// per-token quantisation at the same bit width.
	r := rng.New(6)
	vecs := make([][]float32, 32)
	for i := range vecs {
		vecs[i] = randVec(r, 16)
	}
	// Inject outliers so the sparse component matters.
	vecs[3][5] = 25
	vecs[17][2] = -30
	plain := QuantizeGroup(vecs, PerToken, 2)
	plainMSE := GroupMSE(vecs, plain)
	cfg := GEARConfig{Bits: 2, GroupSize: 32, SparseFrac: 0.02, RankFrac: 0.1, PowerIters: 8}
	blk := compressGear(vecs, cfg)
	rec := blk.decompress()
	var gearMSE float64
	for ti := range vecs {
		for ci := range vecs[ti] {
			d := float64(vecs[ti][ci] - rec[ti][ci])
			gearMSE += d * d
		}
	}
	gearMSE /= float64(32 * 16)
	if gearMSE >= plainMSE {
		t.Fatalf("GEAR mse %v should beat plain quant %v", gearMSE, plainMSE)
	}
}

func TestGEARMemoryAboveKIVISameBits(t *testing.T) {
	// GEAR stores outliers and low-rank factors on top of the codes, so at
	// identical bits/group it must cost more memory than KIVI's codes.
	shape := cacheShape()
	g := NewGEAR(shape, GEARConfig{Bits: 4, GroupSize: 8, SparseFrac: 0.05, RankFrac: 0.1, PowerIters: 4})
	k := NewKIVI(shape, KIVIConfig{Bits: 4, GroupSize: 8, Residual: 0})
	appendRandom(g, 64, 7)
	appendRandom(k, 64, 7)
	if g.MemoryBytes() <= k.MemoryBytes() {
		t.Fatalf("GEAR bytes %d should exceed bare-codes KIVI %d", g.MemoryBytes(), k.MemoryBytes())
	}
	if g.CompressionRatio() <= 1 {
		t.Fatalf("GEAR ratio %v should still compress", g.CompressionRatio())
	}
}

func TestGEARValidation(t *testing.T) {
	if err := (GEARConfig{Bits: 4, GroupSize: 8, SparseFrac: 1.5}).Validate(); err == nil {
		t.Fatal("expected sparse fraction error")
	}
	if err := DefaultGEAR(2).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantCachesInterfaceCompliance(t *testing.T) {
	var _ kvcache.Cache = NewKIVI(cacheShape(), DefaultKIVI(4))
	var _ kvcache.Cache = NewGEAR(cacheShape(), DefaultGEAR(4))
}

func TestLowRankApplyRankZeroSafe(t *testing.T) {
	var lr lowRank
	dst := [][]float32{{1, 2}, {3, 4}}
	lr.apply(dst) // must not panic
	if dst[0][0] != 1 {
		t.Fatal("empty low-rank should be identity")
	}
}
