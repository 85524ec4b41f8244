package kvcache

// This file gives PagedKV per-page key metadata for Quest-style sparse
// attention (Tang et al., 2024): every page carries, per kv-head and
// per channel, the min and max of the keys it holds. A query can then
// bound its best possible dot product against any key in the page —
// Σ_c max(q_c·min_c, q_c·max_c) — and attend over only the most critical
// pages (model/sparse.go, over attention.CriticalityStrided and
// attention.SelectTopPages).
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
// A summary is part of its page, so it clones with it: sealed pages share
// theirs by reference, a copied head folds its own.

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
	c.deq = make([]float32, c.shape.HeadDim)
}

// KeySummary implements Paged: page p's summary, aligned with Rows' page
// index; nil when summaries are off. The slice aliases cache-owned storage
// and is valid until the next append.
func (c *PagedKV) KeySummary(layer, page int) []float32 { return c.pages[layer][page].summ }

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

// fold folds the keys of p's tokens [from, to) into its summary, token by
// token in append order, reading them back as every reader will: an fp32
// page's rows in place, a quantized page's codes dequantized. Append folds
// each span it stores; a clone holding the head of a longer page folds that
// head from token 0, which is the fold append would have produced had only
// those tokens ever reached the page.
func (c *PagedKV) fold(p *page, from, to int) {
	d, stride := c.shape.HeadDim, c.stride()
	for h := 0; h < c.shape.KVHeads; h++ {
		r := c.rows(p, h, false)
		for t := from; t < to; t++ {
			summUpdateSeg(p.summ, stride, h*d, row(&r, t, d, c.deq), t == 0)
		}
	}
}
