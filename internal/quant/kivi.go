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

// NewKIVI builds an empty KIVI cache: a block's keys quantise per channel
// and its values per token once Residual newer tokens follow it.
func NewKIVI(shape kvcache.Shape, cfg KIVIConfig) *BlockCache {
	mustValidate(shape.Validate(), cfg.Validate())
	seal := func(gran Granularity) codec {
		return func(rows [][]float32) ([][]float32, int64) {
			q := QuantizeGroup(rows, gran, cfg.Bits)
			return q.Dequantize(), q.StorageBits()
		}
	}
	return newBlockCache(shape, cfg.Residual, cfg.GroupSize, seal(PerChannel), seal(PerToken))
}
