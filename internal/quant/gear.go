package quant

import (
	"fmt"
	"math"
	"sort"

	"rethinkkv/internal/kvcache"
)

// GEARConfig mirrors GEAR (Kang et al., 2024): uniform per-token
// quantisation augmented with (1) a sparse matrix holding the top-s fraction
// of quantisation-error outliers in full precision and (2) a rank-r low-rank
// approximation of the remaining error. The paper's evaluation uses
// s = 2%, r = 2% (Appendix A.3).
type GEARConfig struct {
	Bits       int
	GroupSize  int     // tokens per compressed block
	SparseFrac float64 // s: fraction of entries kept as exact outliers
	RankFrac   float64 // r: low-rank rank as a fraction of head dim
	PowerIters int     // power-method iterations per rank
}

// DefaultGEAR returns the paper's configuration at the given bit width.
func DefaultGEAR(bits int) GEARConfig {
	return GEARConfig{Bits: bits, GroupSize: 32, SparseFrac: 0.02, RankFrac: 0.02, PowerIters: 8}
}

// Validate reports configuration errors.
func (c GEARConfig) Validate() error {
	if c.Bits < 1 || c.Bits > 8 {
		return fmt.Errorf("quant: GEAR bits %d out of range", c.Bits)
	}
	if c.GroupSize <= 0 || c.SparseFrac < 0 || c.SparseFrac > 1 || c.RankFrac < 0 || c.RankFrac > 1 {
		return fmt.Errorf("quant: invalid GEAR config %+v", c)
	}
	return nil
}

// rank returns the effective low-rank rank for a given head dimension.
func (c GEARConfig) rank(dim int) int {
	r := int(math.Ceil(c.RankFrac * float64(dim)))
	if r < 1 {
		r = 1
	}
	return r
}

// outlier is one exactly-stored error entry.
type outlier struct {
	tok, ch int
	val     float32
}

// lowRank is a rank-r factorisation U·Vᵀ of a tokens × channels matrix.
type lowRank struct {
	u [][]float32 // tokens × rank
	v [][]float32 // channels × rank
}

// apply adds U·Vᵀ to dst (tokens × channels).
func (lr lowRank) apply(dst [][]float32) {
	if len(lr.u) == 0 {
		return
	}
	rank := len(lr.u[0])
	for t := range dst {
		for r := 0; r < rank; r++ {
			ut := lr.u[t][r]
			if ut == 0 {
				continue
			}
			for ch := range dst[t] {
				dst[t][ch] += ut * lr.v[ch][r]
			}
		}
	}
}

// gearBlock is one compressed group for a single tensor (K or V).
type gearBlock struct {
	q        GroupQuantized
	outliers []outlier
	lr       lowRank
}

// compressGear builds a gearBlock from a group of token vectors.
func compressGear(vecs [][]float32, cfg GEARConfig) gearBlock {
	b := gearBlock{q: QuantizeGroup(vecs, PerToken, cfg.Bits)}
	rec := b.q.Dequantize()
	tokens, channels := len(vecs), len(vecs[0])
	// Error matrix.
	errMat := make([][]float32, tokens)
	for t := range errMat {
		errMat[t] = make([]float32, channels)
		for ch := range errMat[t] {
			errMat[t][ch] = vecs[t][ch] - rec[t][ch]
		}
	}
	// Top-s outliers by |error|.
	nOut := int(cfg.SparseFrac * float64(tokens*channels))
	if nOut > 0 {
		type cell struct {
			t, c int
			a    float64
		}
		cells := make([]cell, 0, tokens*channels)
		for t := range errMat {
			for ch := range errMat[t] {
				cells = append(cells, cell{t, ch, math.Abs(float64(errMat[t][ch]))})
			}
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].a > cells[j].a })
		for _, c := range cells[:nOut] {
			b.outliers = append(b.outliers, outlier{tok: c.t, ch: c.c, val: errMat[c.t][c.c]})
			errMat[c.t][c.c] = 0
		}
	}
	// Low-rank approximation of the residual error by deflated power
	// iteration. Deterministic: initial vector is uniform.
	rank := cfg.rank(channels)
	b.lr = lowRank{u: make([][]float32, tokens), v: make([][]float32, channels)}
	for t := range b.lr.u {
		b.lr.u[t] = make([]float32, rank)
	}
	for ch := range b.lr.v {
		b.lr.v[ch] = make([]float32, rank)
	}
	for r := 0; r < rank; r++ {
		v := make([]float64, channels)
		for i := range v {
			v[i] = 1 / math.Sqrt(float64(channels))
		}
		u := make([]float64, tokens)
		for it := 0; it < cfg.PowerIters; it++ {
			// u = E v
			for t := 0; t < tokens; t++ {
				s := 0.0
				for ch := 0; ch < channels; ch++ {
					s += float64(errMat[t][ch]) * v[ch]
				}
				u[t] = s
			}
			normalize(u)
			// v = Eᵀ u
			for ch := 0; ch < channels; ch++ {
				s := 0.0
				for t := 0; t < tokens; t++ {
					s += float64(errMat[t][ch]) * u[t]
				}
				v[ch] = s
			}
			sigma := normalize(v)
			if sigma == 0 {
				break
			}
		}
		// sigma u vᵀ with sigma folded into u: compute sigma = uᵀ E v.
		sigma := 0.0
		for t := 0; t < tokens; t++ {
			for ch := 0; ch < channels; ch++ {
				sigma += u[t] * float64(errMat[t][ch]) * v[ch]
			}
		}
		for t := 0; t < tokens; t++ {
			b.lr.u[t][r] = float32(sigma * u[t])
		}
		for ch := 0; ch < channels; ch++ {
			b.lr.v[ch][r] = float32(v[ch])
		}
		// Deflate.
		for t := 0; t < tokens; t++ {
			for ch := 0; ch < channels; ch++ {
				errMat[t][ch] -= b.lr.u[t][r] * b.lr.v[ch][r]
			}
		}
	}
	return b
}

func normalize(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

// decompress reconstructs the block's token vectors.
func (b gearBlock) decompress() [][]float32 {
	out := b.q.Dequantize()
	b.lr.apply(out)
	for _, o := range b.outliers {
		out[o.tok][o.ch] += o.val
	}
	return out
}

// storageBits returns the block's true storage cost.
func (b gearBlock) storageBits() int64 {
	bits := b.q.StorageBits()
	bits += int64(len(b.outliers)) * (16 /*fp16 value*/ + 16 /*packed index*/)
	if len(b.lr.u) > 0 {
		rank := len(b.lr.u[0])
		bits += int64(len(b.lr.u)+len(b.lr.v)) * int64(rank) * 16
	}
	return bits
}

// NewGEAR builds an empty GEAR cache. Its fill buffer (one group) stays in
// full precision until the group completes, mirroring GEAR's streaming
// buffer.
func NewGEAR(shape kvcache.Shape, cfg GEARConfig) *BlockCache {
	mustValidate(shape.Validate(), cfg.Validate())
	seal := func(rows [][]float32) ([][]float32, int64) {
		b := compressGear(rows, cfg)
		return b.decompress(), b.storageBits()
	}
	return newBlockCache(shape, 0, cfg.GroupSize, seal, seal)
}
