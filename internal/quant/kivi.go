package quant

import (
	"fmt"

	"rethinkkv/internal/kvcache"
)

// KIVIConfig mirrors the tunables of the KIVI algorithm (Liu et al., 2024):
// asymmetric quantisation with per-channel keys and per-token values, a
// group of G tokens sharing quantisation parameters, and the most recent R
// tokens kept in full precision. The paper's evaluation uses G=32, R=128
// (Appendix A.3) at 2 or 4 bits.
type KIVIConfig struct {
	Bits      int
	GroupSize int // tokens per quantisation block (G)
	Residual  int // full-precision recent-token window (R)
}

// DefaultKIVI returns the paper's configuration at the given bit width.
func DefaultKIVI(bits int) KIVIConfig {
	return KIVIConfig{Bits: bits, GroupSize: 32, Residual: 128}
}

// Validate reports configuration errors.
func (c KIVIConfig) Validate() error {
	if c.Bits < 1 || c.Bits > 8 {
		return fmt.Errorf("quant: KIVI bits %d out of range", c.Bits)
	}
	if c.GroupSize <= 0 || c.Residual < 0 {
		return fmt.Errorf("quant: invalid KIVI window config %+v", c)
	}
	return nil
}

// kiviBlock is one quantised group of tokens for a single head.
type kiviBlock struct {
	keys GroupQuantized // per-channel
	vals GroupQuantized // per-token
}

// kiviStream is the per-(layer, head) state.
type kiviStream struct {
	blocks []kiviBlock
	fullK  [][]float32
	fullV  [][]float32
}

// KIVICache implements kvcache.Cache with KIVI quantisation. Reads return
// dequantised tensors; quantisation error therefore propagates into the
// model's attention outputs exactly as it would on a GPU.
type KIVICache struct {
	cfg      KIVIConfig
	shape    kvcache.Shape
	streams  [][]*kiviStream // [layer][head]
	appended int
}

// NewKIVI builds an empty KIVI cache.
func NewKIVI(shape kvcache.Shape, cfg KIVIConfig) *KIVICache {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &KIVICache{cfg: cfg, shape: shape}
	c.streams = make([][]*kiviStream, shape.Layers)
	for l := range c.streams {
		c.streams[l] = make([]*kiviStream, shape.KVHeads)
		for h := range c.streams[l] {
			c.streams[l][h] = &kiviStream{}
		}
	}
	return c
}

// Shape returns the cache dimensions.
func (c *KIVICache) Shape() kvcache.Shape { return c.shape }

// AppendFlatN implements kvcache.Cache: token by token, each head's vectors
// join its full-precision window, and any full block that has slid out of
// the residual window is quantised.
func (c *KIVICache) AppendFlatN(layer, n int, k, v []float32) {
	c.shape.CheckSpan(layer, n, k, v)
	kvh, d := c.shape.KVHeads, c.shape.HeadDim
	for i := 0; i < n*kvh; i++ { // token i/kvh, head i%kvh
		s := c.streams[layer][i%kvh]
		s.fullK = append(s.fullK, append([]float32(nil), k[i*d:(i+1)*d]...))
		s.fullV = append(s.fullV, append([]float32(nil), v[i*d:(i+1)*d]...))
		for len(s.fullK) >= c.cfg.Residual+c.cfg.GroupSize {
			g := c.cfg.GroupSize
			s.blocks = append(s.blocks, kiviBlock{
				keys: QuantizeGroup(s.fullK[:g], PerChannel, c.cfg.Bits),
				vals: QuantizeGroup(s.fullV[:g], PerToken, c.cfg.Bits),
			})
			s.fullK = s.fullK[g:]
			s.fullV = s.fullV[g:]
		}
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// Seq returns dequantised blocks followed by the full-precision window.
func (c *KIVICache) Seq(layer, head int) (keys, values [][]float32) {
	s := c.streams[layer][head]
	for _, b := range s.blocks {
		keys = append(keys, b.keys.Dequantize()...)
		values = append(values, b.vals.Dequantize()...)
	}
	keys = append(keys, s.fullK...)
	values = append(values, s.fullV...)
	return keys, values
}

// Positions returns 0..n-1: quantisation retains every token.
func (c *KIVICache) Positions(layer, head int) []int {
	n := c.Len(layer, head)
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports the retained entry count (all appended tokens).
func (c *KIVICache) Len(layer, head int) int {
	s := c.streams[layer][head]
	n := len(s.fullK)
	for _, b := range s.blocks {
		n += b.keys.Tokens
	}
	return n
}

// TotalAppended reports how many tokens have been appended.
func (c *KIVICache) TotalAppended() int { return c.appended }

// MemoryBytes reports the true compressed footprint: quantised codes and
// affine parameters, plus the FP16 residual window.
func (c *KIVICache) MemoryBytes() int64 {
	var bits int64
	for l := range c.streams {
		for h := range c.streams[l] {
			s := c.streams[l][h]
			for _, b := range s.blocks {
				bits += b.keys.StorageBits() + b.vals.StorageBits()
			}
			bits += int64(len(s.fullK)) * int64(c.shape.HeadDim) * 16 * 2 // K and V fp16
		}
	}
	return bits / 8
}

// CompressionRatio returns FP16 bytes divided by actual bytes for the
// current contents (>= 1 once blocks exist).
func (c *KIVICache) CompressionRatio() float64 {
	actual := c.MemoryBytes()
	if actual == 0 {
		return 1
	}
	return float64(kvcache.FP16Bytes(c.shape, c.appended)) / float64(actual)
}
