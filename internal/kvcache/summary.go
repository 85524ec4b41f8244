package kvcache

import "rethinkkv/internal/tensor"

// This file gives PagedKV per-page key metadata for Quest-style sparse
// attention (Tang et al., 2024): every page carries, per kv-head and
// per channel, the min and max of the keys it holds. A query can then
// bound its best possible dot product against any key in the page —
// Σ_c max(q_c·min_c, q_c·max_c) — and attend over only the most critical
// pages (see attention.PagedStridedSparse).
//
// Summaries are maintained incrementally at append time, one running
// elementwise min/max fold per token, which makes them a pure function of
// the appended key sequence: a sealed page's summary never changes, so
// preemption→recompute replays, ClonePrefix copy-on-write sharing,
// cross-engine migration (recompute on the target), and chunked prefill of
// any split all reproduce bit-identical summaries. For quantized pages the
// fold runs over the *dequantized* values — the exact floats every reader
// reconstructs — so the bound stays sound for what attention actually
// streams.
//
// Layout: one []float32 of length 2*stride per page (stride =
// KVHeads*HeadDim): mins occupy [0, stride), maxes [stride, 2*stride), each
// indexed like a token's flat K vector (head h, channel c at h*HeadDim+c).
// The fixed size means summary pages clone exactly like KV pages: sealed
// summaries share by reference, a partial tail deep-copies.

// KeySummaryReader is the zero-copy read path over per-page key min/max
// summaries — the metadata sibling of PageReader/QuantReader. KeySummaries
// returns one layer's summaries, aligned index-for-index with that layer's
// pages; each entry is 2*stride floats (min block then max block). The
// slices alias cache-owned storage and are valid until the next Append.
type KeySummaryReader interface {
	KeySummaries(layer int) [][]float32
	KeySummariesEnabled() bool
}

// EnableKeySummaries turns on per-page key min/max maintenance. It must be
// called on an empty cache: summaries are folded in at append time, and a
// cache that already holds tokens has lost the information. Clones made
// with ClonePrefix inherit the setting (and the summaries) automatically.
func (c *PagedKV) EnableKeySummaries() {
	if c.summaries {
		return
	}
	if c.appended != 0 {
		panic("kvcache: EnableKeySummaries on a non-empty cache")
	}
	c.summaries = true
	c.kSumms = make([][][]float32, c.shape.Layers)
}

// KeySummariesEnabled implements KeySummaryReader.
func (c *PagedKV) KeySummariesEnabled() bool { return c.summaries }

// KeySummaries implements KeySummaryReader; nil when summaries are off.
func (c *PagedKV) KeySummaries(layer int) [][]float32 {
	if !c.summaries {
		return nil
	}
	return c.kSumms[layer]
}

// KeySummaryBytes reports the extra resident bytes the summaries add: two
// float32 per (page, kv-head, channel), i.e. 8*stride bytes per page —
// 1/(4*PageTokens) of the fp32 page payload, so at the default 16-token
// pages the metadata overhead is ~1.6% (and proportionally more of a
// quantized page's smaller footprint). Kept separate from MemoryBytes,
// whose FP16-equivalent convention prices KV payload for accuracy
// comparisons.
func (c *PagedKV) KeySummaryBytes() int64 {
	var pages int64
	for l := range c.kSumms {
		pages += int64(len(c.kSumms[l]))
	}
	return pages * int64(2*c.stride()) * 4
}

// summOpenPage appends a zeroed summary slot for a freshly opened page.
// Called by pageForAppend/qPageForAppend under the same page-open event, so
// summary pages stay aligned index-for-index with KV pages.
func (c *PagedKV) summOpenPage(layer int) {
	c.kSumms[layer] = append(c.kSumms[layer], make([]float32, 2*c.stride()))
}

// summUpdateSeg folds one head slice x into the summary segment at element
// offset off: min block s[off+i], max block s[stride+off+i]. init seeds
// both blocks from x (the page's first token), making the fold independent
// of the zero value.
func summUpdateSeg(s []float32, stride, off int, x []float32, init bool) {
	mins := s[off : off+len(x)]
	maxs := s[stride+off : stride+off+len(x)]
	if init {
		copy(mins, x)
		copy(maxs, x)
		return
	}
	for i, v := range x {
		if v < mins[i] {
			mins[i] = v
		}
		if v > maxs[i] {
			maxs[i] = v
		}
	}
}

// foldSummary computes the key summary of one of c's pages from the keys it
// stores — for a quantized page from their dequantized values, the exact
// floats the append-time fold saw — token by token in append order. It is the
// fold append would have produced had only these tokens ever reached the
// page, which is what a clone holding the head of a longer page needs.
func (c *PagedKV) foldSummary(layer, page int) []float32 {
	stride, d := c.stride(), c.shape.HeadDim
	summ := make([]float32, 2*stride)
	if c.qbits == 0 {
		keys := c.keyPages[layer][page]
		for t := 0; t < len(keys)/stride; t++ {
			summUpdateSeg(summ, stride, 0, keys[t*stride:(t+1)*stride], t == 0)
		}
		return summ
	}
	p := &c.qPages[layer][page]
	kvh := c.shape.KVHeads
	buf := make([]float32, d)
	for t := 0; t < p.Tokens(kvh); t++ {
		for h := 0; h < kvh; h++ {
			tensor.DequantSliceInto(buf, p.KCodes, p.KParams, c.qbits, h*d, stride, kvh, h, t)
			summUpdateSeg(summ, stride, h*d, buf, t == 0)
		}
	}
	return summ
}
