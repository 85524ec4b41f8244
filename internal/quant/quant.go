// Package quant implements KV cache quantisation: a uniform asymmetric
// integer quantiser with per-token, per-channel and grouped granularity, and
// the two quantisation methods the paper evaluates — KIVI (per-channel keys,
// per-token values, full-precision residual window) and GEAR (uniform
// quantisation plus sparse-outlier extraction and low-rank error
// correction).
//
// Both methods run through one kvcache.Cache, BlockCache, which differs
// between them only in its residual window and its block codec. A block is
// decoded once, when it seals, into the rows the cache keeps, so reads return
// *dequantised* tensors in place: the model genuinely computes attention on
// lossy data and every downstream accuracy effect is real. MemoryBytes prices
// the codes, not that decoded copy.
package quant

import (
	"fmt"
	"math"
)

// Uniform performs b-bit asymmetric uniform quantisation of a vector, per
// Eqn. 3 of the paper:
//
//	quantise:   x_q = round((x - lo) / Δ),  Δ = (hi - lo) / (2^b - 1)
//	dequantise: x̂  = x_q·Δ + lo
type Uniform struct {
	Bits int
}

// Levels returns the number of representable levels.
func (u Uniform) Levels() int { return 1 << u.Bits }

// Quantized is a quantised vector with its affine parameters.
type Quantized struct {
	Codes []uint8 // one code per element; values in [0, 2^bits)
	Lo    float32
	Delta float32
}

// Quantize compresses xs. Bits must be in [1, 8]. A constant vector
// quantises exactly (Delta = 0 encodes "all equal to Lo").
func (u Uniform) Quantize(xs []float32) Quantized {
	if u.Bits < 1 || u.Bits > 8 {
		panic(fmt.Sprintf("quant: unsupported bit width %d", u.Bits))
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	q := Quantized{Codes: make([]uint8, len(xs)), Lo: lo}
	if hi == lo {
		return q // Delta 0: every element dequantises to Lo exactly.
	}
	q.Delta = (hi - lo) / float32(u.Levels()-1)
	inv := 1 / q.Delta
	maxCode := float32(u.Levels() - 1)
	for i, x := range xs {
		c := (x - lo) * inv
		// Round half away from zero; clamp for float safety.
		c = float32(math.Round(float64(c)))
		if c < 0 {
			c = 0
		}
		if c > maxCode {
			c = maxCode
		}
		q.Codes[i] = uint8(c)
	}
	return q
}

// Dequantize reconstructs the vector into dst (allocated if nil).
func (q Quantized) Dequantize(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, len(q.Codes))
	}
	for i, c := range q.Codes {
		dst[i] = float32(c)*q.Delta + q.Lo
	}
	return dst
}

// StorageBits returns the true storage cost in bits: packed codes plus the
// two FP16 affine parameters.
func (q Quantized) StorageBits(bits int) int64 {
	return int64(len(q.Codes))*int64(bits) + 2*16
}

// Granularity selects how a [tokens × channels] group is sliced for
// quantisation.
type Granularity int

const (
	// PerToken quantises each token's channel vector with its own affine
	// parameters (used for value tensors in KIVI/KVQuant).
	PerToken Granularity = iota
	// PerChannel quantises each channel across the group's tokens (used
	// for key tensors, whose outliers are channel-aligned).
	PerChannel
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case PerToken:
		return "per-token"
	case PerChannel:
		return "per-channel"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// GroupQuantized is a quantised group of token vectors.
type GroupQuantized struct {
	Gran     Granularity
	Tokens   int
	Channels int
	Slices   []Quantized // one per token (PerToken) or per channel (PerChannel)
	Bits     int
}

// QuantizeGroup quantises a group of token vectors (each of equal length)
// under the given granularity.
func QuantizeGroup(vecs [][]float32, gran Granularity, bits int) GroupQuantized {
	if len(vecs) == 0 || len(vecs[0]) == 0 {
		panic("quant: empty group")
	}
	u := Uniform{Bits: bits}
	g := GroupQuantized{Gran: gran, Tokens: len(vecs), Channels: len(vecs[0]), Bits: bits}
	switch gran {
	case PerToken:
		for _, v := range vecs {
			g.Slices = append(g.Slices, u.Quantize(v))
		}
	case PerChannel:
		for c := 0; c < g.Channels; c++ {
			col := make([]float32, g.Tokens)
			for t, v := range vecs {
				col[t] = v[c]
			}
			g.Slices = append(g.Slices, u.Quantize(col))
		}
	default:
		panic("quant: unknown granularity")
	}
	return g
}

// Dequantize reconstructs the group's token vectors.
func (g GroupQuantized) Dequantize() [][]float32 {
	out := make([][]float32, g.Tokens)
	for t := range out {
		out[t] = make([]float32, g.Channels)
	}
	switch g.Gran {
	case PerToken:
		for t, s := range g.Slices {
			s.Dequantize(out[t])
		}
	case PerChannel:
		col := make([]float32, g.Tokens)
		for c, s := range g.Slices {
			s.Dequantize(col)
			for t := 0; t < g.Tokens; t++ {
				out[t][c] = col[t]
			}
		}
	}
	return out
}

// StorageBits returns the group's true storage cost in bits.
func (g GroupQuantized) StorageBits() int64 {
	var total int64
	for _, s := range g.Slices {
		total += s.StorageBits(g.Bits)
	}
	return total
}
