package quant

import "rethinkkv/internal/kvcache"

// BlockCache implements kvcache.Cache for the block quantisers the paper
// evaluates, KIVI (NewKIVI) and GEAR (NewGEAR). Each (layer, head) stream
// keeps its rows in storage order: sealed blocks, then a full-precision
// window. When the window holds residual+group rows its oldest group seals:
// the method's encoder compresses the block and writes the decoded rows over
// it, so a sealed block decodes once and Seq returns the rows the cache
// keeps. The codes themselves are not kept, only their storage cost, which is
// what MemoryBytes charges.
type BlockCache struct {
	shape           kvcache.Shape
	residual, group int
	// sealK and sealV compress a block of key or value rows, replace the
	// rows with their decoded values and return the codes' storage in bits.
	sealK, sealV func(rows [][]float32) int64
	streams      [][]blockStream // [layer][head]
	appended     int
}

// blockStream is one (layer, head)'s rows: the first sealed are decoded
// blocks, whose codes cost bits, and the rest the full-precision window.
type blockStream struct {
	keys, values [][]float32
	sealed       int
	bits         int64
}

// mustValidate panics with the first non-nil error.
func mustValidate(errs ...error) {
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}

func newBlockCache(shape kvcache.Shape, residual, group int, sealK, sealV func([][]float32) int64) *BlockCache {
	c := &BlockCache{shape: shape, residual: residual, group: group, sealK: sealK, sealV: sealV}
	c.streams = make([][]blockStream, shape.Layers)
	for l := range c.streams {
		c.streams[l] = make([]blockStream, shape.KVHeads)
	}
	return c
}

// Shape returns the cache dimensions.
func (c *BlockCache) Shape() kvcache.Shape { return c.shape }

// AppendFlatN implements kvcache.Cache: token by token, each head's vectors
// join its full-precision window, and a window of residual+group rows seals
// its oldest group.
func (c *BlockCache) AppendFlatN(layer, n int, k, v []float32) {
	c.shape.CheckSpan(layer, n, k, v)
	kvh, d := c.shape.KVHeads, c.shape.HeadDim
	for i := 0; i < n*kvh; i++ { // token i/kvh, head i%kvh
		s := &c.streams[layer][i%kvh]
		s.keys = append(s.keys, append([]float32(nil), k[i*d:(i+1)*d]...))
		s.values = append(s.values, append([]float32(nil), v[i*d:(i+1)*d]...))
		if len(s.keys)-s.sealed >= c.residual+c.group {
			lo, hi := s.sealed, s.sealed+c.group
			s.bits += c.sealK(s.keys[lo:hi]) + c.sealV(s.values[lo:hi])
			s.sealed = hi
		}
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// Seq returns the decoded blocks followed by the full-precision window, in
// place.
func (c *BlockCache) Seq(layer, head int) (keys, values [][]float32) {
	s := &c.streams[layer][head]
	return s.keys[:len(s.keys):len(s.keys)], s.values[:len(s.values):len(s.values)]
}

// Positions returns 0..n-1: quantisation retains every token.
func (c *BlockCache) Positions(layer, head int) []int {
	ps := make([]int, c.Len(layer, head))
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports the retained entry count (all appended tokens).
func (c *BlockCache) Len(layer, head int) int { return len(c.streams[layer][head].keys) }

// TotalAppended reports how many tokens have been appended.
func (c *BlockCache) TotalAppended() int { return c.appended }

// MemoryBytes reports the true compressed footprint: the sealed blocks' codes
// and parameters, plus the window at fp16. The decoded copy of a sealed block
// the cache reads from is the oracle's, not the method's, and is not charged.
func (c *BlockCache) MemoryBytes() int64 {
	var bits int64
	for l := range c.streams {
		for h := range c.streams[l] {
			s := &c.streams[l][h]
			bits += s.bits + int64(len(s.keys)-s.sealed)*int64(c.shape.HeadDim)*16*2 // K and V fp16
		}
	}
	return bits / 8
}

// CompressionRatio returns FP16 bytes divided by actual bytes for the
// current contents (>= 1 once blocks exist).
func (c *BlockCache) CompressionRatio() float64 {
	actual := c.MemoryBytes()
	if actual == 0 {
		return 1
	}
	return float64(kvcache.FP16Bytes(c.shape, c.appended)) / float64(actual)
}
