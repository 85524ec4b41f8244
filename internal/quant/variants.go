package quant

import (
	"fmt"
	"math"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
)

// This file implements three further surveyed quantisation algorithms
// (paper Table 1):
//
//   - QJL (Zandieh et al., 2024): keys are sketched with a random
//     Johnson-Lindenstrauss projection followed by 1-bit (sign)
//     quantisation; the inner product <q, k> is estimated from the sketch
//     as ||k|| · (√(π/2)/m) · <Rq, sign(Rk)>, eliminating per-group
//     quantisation constants entirely. Values are quantised per token.
//   - IntactKV (Liu et al., 2024): pivot tokens (the first tokens, whose
//     keys are extreme outliers in LLaMA-family models) are kept in full
//     precision; all other tokens quantise per token.
//   - MiKV (Yang et al., 2024): importance-aware mixed precision — tokens
//     with high accumulated attention keep high-bit codes, the rest drop
//     to low-bit codes, trading accuracy for memory where it matters least.

// QJLConfig parameterises the QJL cache.
type QJLConfig struct {
	// SketchDim is the JL sketch dimension m (larger = more accurate).
	SketchDim int
	// Bits is the per-token quantisation width for values.
	Bits int
	Seed uint64
}

// DefaultQJL returns a QJL configuration with a 2×head-dim sketch.
func DefaultQJL(headDim int) QJLConfig {
	return QJLConfig{SketchDim: 2 * headDim, Bits: 4, Seed: 0x51}
}

// Validate reports configuration errors.
func (c QJLConfig) Validate() error {
	if c.SketchDim <= 0 {
		return fmt.Errorf("quant: QJL sketch dim %d", c.SketchDim)
	}
	if c.Bits < 1 || c.Bits > 8 {
		return fmt.Errorf("quant: QJL bits %d", c.Bits)
	}
	return nil
}

// qjlEntry is one sketched key plus its quantised value.
type qjlEntry struct {
	signs []uint8 // packed sign bits of Rk, one byte per sketch coord (unpacked for clarity)
	norm  float32 // ||k||
	val   Quantized
}

// qjlStream is the per-(layer, head) state.
type qjlStream struct {
	entries []qjlEntry
}

// QJLCache implements kvcache.Cache with QJL key sketching. Seq returns
// *reconstructed* keys k̂ = √(π/2)/m · ||k|| · Rᵀ sign(Rk), which satisfy
// E[<q, k̂>] = <q, k> — the attention scores the model computes on the
// reconstruction are the QJL estimates.
type QJLCache struct {
	cfg      QJLConfig
	shape    kvcache.Shape
	proj     [][]float32 // SketchDim × HeadDim Gaussian projection
	streams  [][]*qjlStream
	appended int
}

// NewQJL builds an empty QJL cache with a deterministic projection.
func NewQJL(shape kvcache.Shape, cfg QJLConfig) *QJLCache {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(cfg.Seed)
	proj := make([][]float32, cfg.SketchDim)
	for i := range proj {
		proj[i] = make([]float32, shape.HeadDim)
		for j := range proj[i] {
			proj[i][j] = float32(r.NormFloat64())
		}
	}
	c := &QJLCache{cfg: cfg, shape: shape, proj: proj}
	c.streams = make([][]*qjlStream, shape.Layers)
	for l := range c.streams {
		c.streams[l] = make([]*qjlStream, shape.KVHeads)
		for h := range c.streams[l] {
			c.streams[l][h] = &qjlStream{}
		}
	}
	return c
}

// Shape returns the cache dimensions.
func (c *QJLCache) Shape() kvcache.Shape { return c.shape }

// Append sketches the key and quantises the value.
func (c *QJLCache) Append(layer int, k, v [][]float32) {
	u := Uniform{Bits: c.cfg.Bits}
	for h := 0; h < c.shape.KVHeads; h++ {
		var norm float64
		for _, x := range k[h] {
			norm += float64(x) * float64(x)
		}
		e := qjlEntry{
			signs: make([]uint8, c.cfg.SketchDim),
			norm:  float32(math.Sqrt(norm)),
			val:   u.Quantize(v[h]),
		}
		for i, row := range c.proj {
			var dot float32
			for j, x := range k[h] {
				dot += row[j] * x
			}
			if dot >= 0 {
				e.signs[i] = 1
			}
		}
		c.streams[layer][h].entries = append(c.streams[layer][h].entries, e)
	}
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

// Seq reconstructs keys from sketches and dequantises values.
func (c *QJLCache) Seq(layer, head int) (keys, values [][]float32) {
	s := c.streams[layer][head]
	m := float64(c.cfg.SketchDim)
	scale := math.Sqrt(math.Pi/2) / m
	for _, e := range s.entries {
		k := make([]float32, c.shape.HeadDim)
		for i, row := range c.proj {
			sgn := float32(-1)
			if e.signs[i] == 1 {
				sgn = 1
			}
			for j := range k {
				k[j] += sgn * row[j]
			}
		}
		f := float32(scale) * e.norm
		for j := range k {
			k[j] *= f
		}
		keys = append(keys, k)
		values = append(values, e.val.Dequantize(nil))
	}
	return keys, values
}

// Positions returns 0..n-1: QJL retains every token.
func (c *QJLCache) Positions(layer, head int) []int {
	n := c.Len(layer, head)
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports the retained entry count.
func (c *QJLCache) Len(layer, head int) int { return len(c.streams[layer][head].entries) }

// TotalAppended reports appended tokens.
func (c *QJLCache) TotalAppended() int { return c.appended }

// MemoryBytes reports the true compressed footprint: 1 bit per sketch
// coordinate plus an FP16 norm per key, plus quantised values.
func (c *QJLCache) MemoryBytes() int64 {
	var bits int64
	for l := range c.streams {
		for h := range c.streams[l] {
			for _, e := range c.streams[l][h].entries {
				bits += int64(c.cfg.SketchDim) + 16 // key sketch + norm
				bits += e.val.StorageBits(c.cfg.Bits)
			}
		}
	}
	return bits / 8
}

// CompressionRatio returns FP16 bytes over actual bytes.
func (c *QJLCache) CompressionRatio() float64 {
	actual := c.MemoryBytes()
	if actual == 0 {
		return 1
	}
	return float64(kvcache.FP16Bytes(c.shape, c.appended)) / float64(actual)
}

// IntactConfig parameterises IntactKV.
type IntactConfig struct {
	Bits int
	// Pivots is the count of initial tokens kept in full precision.
	Pivots int
}

// DefaultIntact returns the standard IntactKV setting.
func DefaultIntact(bits int) IntactConfig { return IntactConfig{Bits: bits, Pivots: 4} }

// Validate reports configuration errors.
func (c IntactConfig) Validate() error {
	if c.Bits < 1 || c.Bits > 8 || c.Pivots < 0 {
		return fmt.Errorf("quant: invalid IntactKV config %+v", c)
	}
	return nil
}

// intactEntry is one cached token: either exact or quantised.
type intactEntry struct {
	exactK, exactV []float32
	qK, qV         Quantized
	exact          bool
}

// IntactCache implements kvcache.Cache with IntactKV: pivot tokens exact,
// the rest per-token quantised.
type IntactCache struct {
	cfg      IntactConfig
	shape    kvcache.Shape
	streams  [][][]intactEntry
	appended int
}

// NewIntact builds an empty IntactKV cache.
func NewIntact(shape kvcache.Shape, cfg IntactConfig) *IntactCache {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &IntactCache{cfg: cfg, shape: shape}
	c.streams = make([][][]intactEntry, shape.Layers)
	for l := range c.streams {
		c.streams[l] = make([][]intactEntry, shape.KVHeads)
	}
	return c
}

// Shape returns the cache dimensions.
func (c *IntactCache) Shape() kvcache.Shape { return c.shape }

// Append stores one token: exact while within the pivot prefix.
func (c *IntactCache) Append(layer int, k, v [][]float32) {
	u := Uniform{Bits: c.cfg.Bits}
	for h := 0; h < c.shape.KVHeads; h++ {
		var e intactEntry
		if c.appended < c.cfg.Pivots {
			e = intactEntry{
				exactK: append([]float32(nil), k[h]...),
				exactV: append([]float32(nil), v[h]...),
				exact:  true,
			}
		} else {
			e = intactEntry{qK: u.Quantize(k[h]), qV: u.Quantize(v[h])}
		}
		c.streams[layer][h] = append(c.streams[layer][h], e)
	}
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

// Seq returns pivot tokens exactly and others dequantised.
func (c *IntactCache) Seq(layer, head int) (keys, values [][]float32) {
	for _, e := range c.streams[layer][head] {
		if e.exact {
			keys = append(keys, e.exactK)
			values = append(values, e.exactV)
		} else {
			keys = append(keys, e.qK.Dequantize(nil))
			values = append(values, e.qV.Dequantize(nil))
		}
	}
	return keys, values
}

// Positions returns 0..n-1.
func (c *IntactCache) Positions(layer, head int) []int {
	n := c.Len(layer, head)
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports retained entries.
func (c *IntactCache) Len(layer, head int) int { return len(c.streams[layer][head]) }

// TotalAppended reports appended tokens.
func (c *IntactCache) TotalAppended() int { return c.appended }

// MemoryBytes reports the compressed footprint.
func (c *IntactCache) MemoryBytes() int64 {
	var bits int64
	for l := range c.streams {
		for h := range c.streams[l] {
			for _, e := range c.streams[l][h] {
				if e.exact {
					bits += int64(c.shape.HeadDim) * 16 * 2
				} else {
					bits += e.qK.StorageBits(c.cfg.Bits) + e.qV.StorageBits(c.cfg.Bits)
				}
			}
		}
	}
	return bits / 8
}

// MiKVConfig parameterises importance-aware mixed precision.
type MiKVConfig struct {
	HighBits, LowBits int
	// HighFrac is the fraction of tokens kept at HighBits (the most
	// attention-important ones).
	HighFrac float64
	// Rebalance is the append interval between precision reassignments.
	Rebalance int
}

// DefaultMiKV returns 8/2-bit mixed precision over the top 20%.
func DefaultMiKV() MiKVConfig {
	return MiKVConfig{HighBits: 8, LowBits: 2, HighFrac: 0.2, Rebalance: 32}
}

// Validate reports configuration errors.
func (c MiKVConfig) Validate() error {
	if c.HighBits < 1 || c.HighBits > 8 || c.LowBits < 1 || c.LowBits > 8 || c.HighBits <= c.LowBits {
		return fmt.Errorf("quant: invalid MiKV bits %+v", c)
	}
	if c.HighFrac <= 0 || c.HighFrac >= 1 || c.Rebalance <= 0 {
		return fmt.Errorf("quant: invalid MiKV config %+v", c)
	}
	return nil
}

// mikvEntry keeps the original vectors (so precision can be reassigned)
// plus the current codes. Original copies model the engine's ability to
// requantise from the residual stream; only the codes count as resident.
type mikvEntry struct {
	origK, origV []float32
	qK, qV       Quantized
	bits         int
	score        float64
}

// MiKVCache implements importance-aware mixed-precision quantisation.
type MiKVCache struct {
	cfg        MiKVConfig
	shape      kvcache.Shape
	streams    [][][]mikvEntry
	appended   int
	sinceRebal int
}

// NewMiKV builds an empty MiKV cache.
func NewMiKV(shape kvcache.Shape, cfg MiKVConfig) *MiKVCache {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &MiKVCache{cfg: cfg, shape: shape}
	c.streams = make([][][]mikvEntry, shape.Layers)
	for l := range c.streams {
		c.streams[l] = make([][]mikvEntry, shape.KVHeads)
	}
	return c
}

// Shape returns the cache dimensions.
func (c *MiKVCache) Shape() kvcache.Shape { return c.shape }

// Append stores a token at low precision initially.
func (c *MiKVCache) Append(layer int, k, v [][]float32) {
	u := Uniform{Bits: c.cfg.LowBits}
	for h := 0; h < c.shape.KVHeads; h++ {
		c.streams[layer][h] = append(c.streams[layer][h], mikvEntry{
			origK: append([]float32(nil), k[h]...),
			origV: append([]float32(nil), v[h]...),
			qK:    u.Quantize(k[h]), qV: u.Quantize(v[h]),
			bits: c.cfg.LowBits,
		})
	}
	if layer == c.shape.Layers-1 {
		c.appended++
		c.sinceRebal++
		if c.sinceRebal >= c.cfg.Rebalance {
			c.rebalance()
			c.sinceRebal = 0
		}
	}
}

// ObserveAttention implements kvcache.AttentionObserver: accumulated scores
// drive the precision assignment.
func (c *MiKVCache) ObserveAttention(layer, head int, weights []float32) {
	entries := c.streams[layer][head]
	if len(weights) != len(entries) {
		return
	}
	for i, w := range weights {
		entries[i].score += float64(w)
	}
}

// rebalance reassigns precision: the top HighFrac tokens by score per head
// move to HighBits; the rest drop to LowBits.
func (c *MiKVCache) rebalance() {
	for l := range c.streams {
		for h := range c.streams[l] {
			entries := c.streams[l][h]
			n := len(entries)
			if n == 0 {
				continue
			}
			nHigh := int(c.cfg.HighFrac * float64(n))
			if nHigh < 1 {
				nHigh = 1
			}
			// Partial selection of the top-nHigh by score.
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			for i := 0; i < nHigh; i++ {
				best := i
				for j := i + 1; j < n; j++ {
					if entries[idx[j]].score > entries[idx[best]].score {
						best = j
					}
				}
				idx[i], idx[best] = idx[best], idx[i]
			}
			high := make(map[int]bool, nHigh)
			for i := 0; i < nHigh; i++ {
				high[idx[i]] = true
			}
			uh := Uniform{Bits: c.cfg.HighBits}
			ul := Uniform{Bits: c.cfg.LowBits}
			for i := range entries {
				want := c.cfg.LowBits
				if high[i] {
					want = c.cfg.HighBits
				}
				if entries[i].bits == want {
					continue
				}
				u := ul
				if want == c.cfg.HighBits {
					u = uh
				}
				entries[i].qK = u.Quantize(entries[i].origK)
				entries[i].qV = u.Quantize(entries[i].origV)
				entries[i].bits = want
			}
		}
	}
}

// Seq returns dequantised tensors at each token's current precision.
func (c *MiKVCache) Seq(layer, head int) (keys, values [][]float32) {
	for _, e := range c.streams[layer][head] {
		keys = append(keys, e.qK.Dequantize(nil))
		values = append(values, e.qV.Dequantize(nil))
	}
	return keys, values
}

// Positions returns 0..n-1.
func (c *MiKVCache) Positions(layer, head int) []int {
	n := c.Len(layer, head)
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports retained entries.
func (c *MiKVCache) Len(layer, head int) int { return len(c.streams[layer][head]) }

// TotalAppended reports appended tokens.
func (c *MiKVCache) TotalAppended() int { return c.appended }

// MemoryBytes reports resident codes (the originals model requantisation
// capability and are not resident on device).
func (c *MiKVCache) MemoryBytes() int64 {
	var bits int64
	for l := range c.streams {
		for h := range c.streams[l] {
			for _, e := range c.streams[l][h] {
				bits += e.qK.StorageBits(e.bits) + e.qV.StorageBits(e.bits)
			}
		}
	}
	return bits / 8
}
