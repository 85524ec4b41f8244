package quant

import (
	"math"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/tensor"
)

func TestQJLInnerProductEstimate(t *testing.T) {
	// The reconstruction k̂ must estimate <q, k> unbiasedly: average the
	// estimate over many random (q, k) pairs and compare relative error.
	shape := kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 16}
	cfg := QJLConfig{SketchDim: 256, Bits: 8, Seed: 3}
	c := NewQJL(shape, cfg)
	r := rng.New(5)
	var relErrSum float64
	const trials = 60
	for i := 0; i < trials; i++ {
		k := randVec(r, 16)
		q := randVec(r, 16)
		c.streams[0][0].entries = nil
		c.Append(0, [][]float32{k}, [][]float32{k})
		keys, _ := c.Seq(0, 0)
		est := float64(tensor.Dot(q, keys[0]))
		truth := float64(tensor.Dot(q, k))
		if math.Abs(truth) > 0.5 {
			relErrSum += math.Abs(est-truth) / math.Abs(truth)
		}
	}
	if avg := relErrSum / trials; avg > 0.6 {
		t.Fatalf("QJL mean relative error %v too high for sketch 256", avg)
	}
}

func TestQJLSketchDimImprovesEstimate(t *testing.T) {
	shape := kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 16}
	r := rng.New(6)
	measure := func(m int) float64 {
		c := NewQJL(shape, QJLConfig{SketchDim: m, Bits: 8, Seed: 3})
		var errSum float64
		for i := 0; i < 80; i++ {
			k := randVec(r, 16)
			q := randVec(r, 16)
			c.streams[0][0].entries = nil
			c.Append(0, [][]float32{k}, [][]float32{k})
			keys, _ := c.Seq(0, 0)
			errSum += math.Abs(float64(tensor.Dot(q, keys[0]) - tensor.Dot(q, k)))
		}
		return errSum
	}
	small := measure(16)
	large := measure(512)
	if large >= small {
		t.Fatalf("larger sketch should estimate better: m=16 err %v vs m=512 err %v", small, large)
	}
}

func TestQJLMemoryBelowFP16(t *testing.T) {
	shape := kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 16}
	c := NewQJL(shape, DefaultQJL(16))
	appendRandom(c, 100, 7)
	if c.MemoryBytes() >= kvcache.FP16Bytes(shape, 100) {
		t.Fatalf("QJL bytes %d should undercut FP16 %d", c.MemoryBytes(), kvcache.FP16Bytes(shape, 100))
	}
	if c.CompressionRatio() <= 1.5 {
		t.Fatalf("QJL ratio %v too low", c.CompressionRatio())
	}
	if c.Len(0, 0) != 100 || c.TotalAppended() != 100 {
		t.Fatal("QJL must retain all tokens")
	}
	if p := c.Positions(1, 1); len(p) != 100 || p[99] != 99 {
		t.Fatal("positions wrong")
	}
}

func TestIntactPivotsExact(t *testing.T) {
	shape := cacheShape()
	c := NewIntact(shape, IntactConfig{Bits: 2, Pivots: 3})
	hist := appendRandom(c, 10, 8)
	keys, vals := c.Seq(0, 0)
	// First 3 tokens bit-exact.
	for i := 0; i < 3; i++ {
		if maxAbsDiff(keys[i], hist[i][0]) != 0 || maxAbsDiff(vals[i], hist[i][1]) != 0 {
			t.Fatalf("pivot %d not exact", i)
		}
	}
	// Later tokens lossy at 2 bits.
	var worst float64
	for i := 3; i < 10; i++ {
		worst = math.Max(worst, maxAbsDiff(keys[i], hist[i][0]))
	}
	if worst == 0 {
		t.Fatal("non-pivot tokens unexpectedly lossless")
	}
}

func TestIntactMemoryBetweenFullAndQuant(t *testing.T) {
	shape := cacheShape()
	intact := NewIntact(shape, IntactConfig{Bits: 4, Pivots: 4})
	appendRandom(intact, 50, 9)
	full := kvcache.FP16Bytes(shape, 50)
	if intact.MemoryBytes() >= full {
		t.Fatal("IntactKV should compress overall")
	}
}

func TestIntactValidation(t *testing.T) {
	if err := (IntactConfig{Bits: 0, Pivots: 1}).Validate(); err == nil {
		t.Fatal("expected bits error")
	}
	if err := DefaultIntact(4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMiKVPrecisionFollowsImportance(t *testing.T) {
	shape := kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 8}
	cfg := MiKVConfig{HighBits: 8, LowBits: 2, HighFrac: 0.25, Rebalance: 4}
	c := NewMiKV(shape, cfg)
	r := rng.New(10)
	// Append 8 tokens, observing high attention on token 2 each step.
	for i := 0; i < 8; i++ {
		k := [][]float32{randVec(r, 8)}
		c.Append(0, k, k)
		n := c.Len(0, 0)
		w := make([]float32, n)
		if n > 2 {
			w[2] = 0.9
		}
		c.ObserveAttention(0, 0, w)
	}
	// After rebalancing, token 2 must hold high-bit codes.
	if c.streams[0][0][2].bits != 8 {
		t.Fatalf("important token at %d bits", c.streams[0][0][2].bits)
	}
	frac := c.HighPrecisionFraction()
	if frac <= 0 || frac > 0.5 {
		t.Fatalf("high-precision fraction %v outside expectation", frac)
	}
}

func TestMiKVReconstructionBetterOnImportantTokens(t *testing.T) {
	shape := kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 8}
	c := NewMiKV(shape, MiKVConfig{HighBits: 8, LowBits: 2, HighFrac: 0.2, Rebalance: 2})
	r := rng.New(11)
	var hist [][]float32
	for i := 0; i < 10; i++ {
		k := randVec(r, 8)
		hist = append(hist, append([]float32(nil), k...))
		c.Append(0, [][]float32{k}, [][]float32{k})
		n := c.Len(0, 0)
		w := make([]float32, n)
		w[0] = 0.9 // token 0 is always important
		c.ObserveAttention(0, 0, w)
	}
	keys, _ := c.Seq(0, 0)
	errImportant := maxAbsDiff(keys[0], hist[0])
	var errRest float64
	for i := 5; i < 10; i++ {
		errRest = math.Max(errRest, maxAbsDiff(keys[i], hist[i]))
	}
	if errImportant >= errRest {
		t.Fatalf("important token error %v should undercut others %v", errImportant, errRest)
	}
}

func TestMiKVValidation(t *testing.T) {
	bad := []MiKVConfig{
		{HighBits: 2, LowBits: 4, HighFrac: 0.2, Rebalance: 8}, // high <= low
		{HighBits: 8, LowBits: 2, HighFrac: 0, Rebalance: 8},
		{HighBits: 8, LowBits: 2, HighFrac: 0.2, Rebalance: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	if err := DefaultMiKV().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVariantInterfaceCompliance(t *testing.T) {
	shape := cacheShape()
	var _ kvcache.Cache = NewQJL(shape, DefaultQJL(shape.HeadDim))
	var _ kvcache.Cache = NewIntact(shape, DefaultIntact(4))
	var c kvcache.Cache = NewMiKV(shape, DefaultMiKV())
	if _, ok := c.(kvcache.AttentionObserver); !ok {
		t.Fatal("MiKV must observe attention")
	}
}

// HighPrecisionFraction reports the current fraction of tokens at HighBits.
func (c *MiKVCache) HighPrecisionFraction() float64 {
	var high, total int
	for l := range c.streams {
		for h := range c.streams[l] {
			for _, e := range c.streams[l][h] {
				total++
				if e.bits == c.cfg.HighBits {
					high++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(high) / float64(total)
}
