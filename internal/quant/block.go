package quant

import "rethinkkv/internal/kvcache"

// BlockCache implements kvcache.Cache for the block quantisers the paper
// evaluates, KIVI (NewKIVI) and GEAR (NewGEAR). Each (layer, head) stream
// keeps its rows in storage order, flat as Seq returns them: sealed blocks,
// then a full-precision window. When the window holds residual+group rows
// its oldest group seals: the method's codec compresses the block and the
// decoded rows are written over it, so a sealed block decodes once and Seq
// returns the rows the cache keeps. The codes themselves are not kept, only
// their storage cost, which is what MemoryBytes charges.
type BlockCache struct {
	shape           kvcache.Shape
	residual, group int
	codecK, codecV  codec           // the method's key and value codecs
	streams         [][]blockStream // [layer][head]
	// view is the sealing block's row views into a stream, reused.
	view     [][]float32
	appended int
}

// codec compresses a block of rows and returns their decoded values and the
// codes' storage in bits.
type codec func(rows [][]float32) (decoded [][]float32, bits int64)

// blockStream is one (layer, head)'s rows, HeadDim floats each: the first
// sealed are decoded blocks, whose codes cost bits, and the rest the
// full-precision window.
type blockStream struct {
	keys, values []float32
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

func newBlockCache(shape kvcache.Shape, residual, group int, codecK, codecV codec) *BlockCache {
	c := &BlockCache{shape: shape, residual: residual, group: group, codecK: codecK, codecV: codecV, view: make([][]float32, group)}
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
		s.keys = append(s.keys, k[i*d:(i+1)*d]...)
		s.values = append(s.values, v[i*d:(i+1)*d]...)
		if len(s.keys)/d-s.sealed >= c.residual+c.group {
			s.bits += c.seal(s.keys, s.sealed, c.codecK) + c.seal(s.values, s.sealed, c.codecV)
			s.sealed += c.group
		}
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// seal compresses the group rows of flat from row lo on through codec,
// writes the decoded rows over them through the reused row views, and
// returns the codes' storage in bits.
func (c *BlockCache) seal(flat []float32, lo int, codec codec) int64 {
	d := c.shape.HeadDim
	for j := range c.view {
		r := (lo + j) * d
		c.view[j] = flat[r : r+d : r+d]
	}
	decoded, bits := codec(c.view)
	for j, row := range decoded {
		copy(c.view[j], row)
	}
	return bits
}

// Seq returns the decoded blocks followed by the full-precision window, in
// place.
func (c *BlockCache) Seq(layer, head int) (keys, values []float32) {
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
func (c *BlockCache) Len(layer, head int) int {
	return len(c.streams[layer][head].keys) / c.shape.HeadDim
}

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
			bits += s.bits + int64(len(s.keys)-s.sealed*c.shape.HeadDim)*16*2 // K and V fp16
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
