package kvcache

import (
	"errors"
	"fmt"

	"rethinkkv/internal/stats"
)

// ErrOutOfPages is returned when a budgeted PagedKV cannot hold more
// tokens: the page-granular out-of-memory condition a real paged engine
// hits when the KV pool is exhausted. The continuous-batching scheduler
// (internal/sched) treats it as the preemption trigger. Test with
// errors.Is; the public facade re-exports it as rethinkkv.ErrOutOfPages.
var ErrOutOfPages = errors.New("kvcache: out of KV pages")

// PagedKV is a full-precision cache whose K/V tensors live in fixed-size
// flat pages instead of one contiguous buffer — the data-plane counterpart
// of PagedAllocator's block-table bookkeeping. Each page is a token-major
// flat []float32 block holding up to PageTokens tokens (token i of the page,
// head h at offset i*stride + h*HeadDim, stride = KVHeads*HeadDim); the last
// page is partially filled. Pages are never copied or concatenated on read:
// attention streams them via PageReader (see attention.PagedStrided) or the
// model's paged hot path, and MemoryBytes charges whole allocated pages,
// making internal fragmentation visible exactly as a paged engine pays it.
type PagedKV struct {
	shape      Shape
	pageTokens int
	// maxPages bounds the per-layer page count (every layer grows in
	// lockstep, so the budget is counted once, not per layer); 0 means
	// unbounded. Exceeding it surfaces as ErrOutOfPages from Reserve —
	// never as silent overgrowth.
	maxPages int
	keyPages [][][]float32 // [layer][page] flat token-major block
	valPages [][][]float32
	appended int
	// shared marks the prefix of each layer's pages (all layers share the
	// same count) that alias another cache's storage after ClonePrefix;
	// those pages are full and immutable, so sharing is safe, but they
	// must not be appended to.
	shared int
	// qbits selects the quantized page backend (see qpage.go): 0 stores
	// full-precision fp32 pages in keyPages/valPages; 4 or 8 quantizes every
	// token's K/V on append into qPages instead, and the fp32 page slices
	// stay empty.
	qbits  int
	qPages [][]QuantPage // [layer][page], only when qbits != 0
	// summaries turns on per-page key min/max metadata for Quest-style
	// sparse attention (see summary.go); kSumms[layer][page] holds 2*stride
	// floats (min block, then max block), aligned with the page index.
	summaries bool
	kSumms    [][][]float32
}

// PageReader is the zero-copy read path over page-granular flat storage.
// KVPages returns one layer's pages; within a page, token i's vector for
// head h occupies page[i*stride + h*HeadDim : ...+HeadDim] and the page's
// token count is len(page)/stride. The returned slices alias cache-owned
// storage and are valid until the next Append.
type PageReader interface {
	KVPages(layer int) (keyPages, valPages [][]float32, stride int)
	PageTokens() int
}

// NewPagedKV allocates an empty paged cache with the given page size in
// tokens. It panics on an invalid shape or non-positive page size.
func NewPagedKV(shape Shape, pageTokens int) *PagedKV {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if pageTokens <= 0 {
		panic("kvcache: non-positive page size")
	}
	return &PagedKV{
		shape:      shape,
		pageTokens: pageTokens,
		keyPages:   make([][][]float32, shape.Layers),
		valPages:   make([][][]float32, shape.Layers),
	}
}

// NewPagedKVBudget is NewPagedKV with a hard per-layer page budget: once
// the cache holds maxPages*PageTokens tokens, Reserve reports
// ErrOutOfPages instead of growing. maxPages <= 0 means unbounded.
func NewPagedKVBudget(shape Shape, pageTokens, maxPages int) *PagedKV {
	c := NewPagedKV(shape, pageTokens)
	if maxPages > 0 {
		c.maxPages = maxPages
	}
	return c
}

// SetPageBudget installs or clears (n <= 0) the per-layer page budget. It
// returns ErrOutOfPages without changing anything if the cache already
// holds more pages than the new budget allows.
func (c *PagedKV) SetPageBudget(n int) error {
	if n > 0 && c.Pages() > n {
		return fmt.Errorf("%w: %d pages already allocated, budget %d", ErrOutOfPages, c.Pages(), n)
	}
	c.maxPages = stats.MaxI(n, 0)
	return nil
}

// PageBudget returns the per-layer page budget (0 = unbounded).
func (c *PagedKV) PageBudget() int { return c.maxPages }

// PagesFor returns the page count needed to hold tokens tokens at the
// given page size.
func PagesFor(tokens, pageTokens int) int {
	return (tokens + pageTokens - 1) / pageTokens
}

// Pages returns the per-layer page count currently allocated.
func (c *PagedKV) Pages() int { return PagesFor(c.appended, c.pageTokens) }

// Reserve reports whether the cache can grow by extraTokens more tokens
// under its page budget, returning ErrOutOfPages (wrapped, test with
// errors.Is) when it cannot. This is the non-panicking admission check a
// scheduler runs before prefilling a prompt or decoding a step; Append
// within a successful reservation never fails.
func (c *PagedKV) Reserve(extraTokens int) error {
	if c.maxPages <= 0 || extraTokens <= 0 {
		return nil
	}
	if need := PagesFor(c.appended+extraTokens, c.pageTokens); need > c.maxPages {
		return fmt.Errorf("%w: need %d pages for %d tokens, budget %d", ErrOutOfPages, need, c.appended+extraTokens, c.maxPages)
	}
	return nil
}

// Shape returns the cache dimensions.
func (c *PagedKV) Shape() Shape { return c.shape }

// PageTokens returns the page capacity in tokens.
func (c *PagedKV) PageTokens() int { return c.pageTokens }

func (c *PagedKV) stride() int { return c.shape.KVHeads * c.shape.HeadDim }

// Append stores one token's K/V for the given layer, opening a fresh page
// when the current one is full. Under a page budget callers must check
// Reserve first: appending past the budget is a caller contract violation
// and panics with ErrOutOfPages rather than silently overgrowing.
func (c *PagedKV) Append(layer int, k, v [][]float32) {
	if layer < 0 || layer >= c.shape.Layers {
		panic("kvcache: layer out of range")
	}
	if len(k) != c.shape.KVHeads || len(v) != c.shape.KVHeads {
		panic("kvcache: head count mismatch on append")
	}
	if c.qbits != 0 {
		p := c.qPageForAppend(layer)
		var summ []float32
		init := false
		if c.summaries {
			summ = c.kSumms[layer][len(c.qPages[layer])-1]
			init = p.Tokens(c.shape.KVHeads) == 0
		}
		d, stride := c.shape.HeadDim, c.stride()
		for h := 0; h < c.shape.KVHeads; h++ {
			if len(k[h]) != d || len(v[h]) != d {
				panic("kvcache: head dim mismatch on append")
			}
			var smin, smax []float32
			if summ != nil {
				smin = summ[h*d : (h+1)*d]
				smax = summ[stride+h*d : stride+(h+1)*d]
			}
			p.KCodes, p.KParams = quantAppendSlice(p.KCodes, p.KParams, k[h], c.qbits, smin, smax, init)
			p.VCodes, p.VParams = quantAppendSlice(p.VCodes, p.VParams, v[h], c.qbits, nil, nil, false)
		}
		if layer == c.shape.Layers-1 {
			c.appended++
		}
		return
	}
	last := c.pageForAppend(layer)
	var summ []float32
	init := false
	if c.summaries {
		summ = c.kSumms[layer][last]
		init = len(c.keyPages[layer][last]) == 0
	}
	stride := c.stride()
	for h := 0; h < c.shape.KVHeads; h++ {
		if len(k[h]) != c.shape.HeadDim || len(v[h]) != c.shape.HeadDim {
			panic("kvcache: head dim mismatch on append")
		}
		if summ != nil {
			summUpdateSeg(summ, stride, h*c.shape.HeadDim, k[h], init)
		}
		c.keyPages[layer][last] = append(c.keyPages[layer][last], k[h]...)
		c.valPages[layer][last] = append(c.valPages[layer][last], v[h]...)
	}
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

// AppendFlat implements FlatAppender: one token's K/V arrive as flat
// head-major vectors (length KVHeads*HeadDim) and are copied onto the
// current page in a single append each — the same bytes Append stores head
// by head, the same page-opening and budget rules. A fused batch step
// calls this once per (session, layer); there is no cross-session batched
// append because sessions own distinct caches (see FlatAppender).
func (c *PagedKV) AppendFlat(layer int, k, v []float32) {
	if layer < 0 || layer >= c.shape.Layers {
		panic("kvcache: layer out of range")
	}
	if stride := c.stride(); len(k) != stride || len(v) != stride {
		panic("kvcache: flat append length mismatch")
	}
	if c.qbits != 0 {
		c.appendQuantToken(layer, k, v)
		if layer == c.shape.Layers-1 {
			c.appended++
		}
		return
	}
	last := c.pageForAppend(layer)
	if c.summaries {
		summUpdateSeg(c.kSumms[layer][last], c.stride(), 0, k, len(c.keyPages[layer][last]) == 0)
	}
	c.keyPages[layer][last] = append(c.keyPages[layer][last], k...)
	c.valPages[layer][last] = append(c.valPages[layer][last], v...)
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

// AppendFlatN implements FlatBatchAppender: n tokens' K/V arrive as one
// contiguous token-major span and are split across pages — filling the
// current partial page, then whole pages, then a trailing partial — under
// the same budget rules as single-token appends (callers must Reserve
// first; an unreserved append past the budget panics with ErrOutOfPages).
// The stored bytes, page boundaries included, are identical to n successive
// AppendFlat calls over the same spans.
func (c *PagedKV) AppendFlatN(layer, n int, k, v []float32) {
	if layer < 0 || layer >= c.shape.Layers {
		panic("kvcache: layer out of range")
	}
	stride := c.stride()
	if n < 0 || len(k) != n*stride || len(v) != len(k) {
		panic("kvcache: flat append length mismatch")
	}
	if c.qbits != 0 {
		// Each token quantizes independently at append, so the chunked form
		// is the per-token form by construction: same codes, same params,
		// same page boundaries as n successive AppendFlat calls.
		for t := 0; t < n; t++ {
			c.appendQuantToken(layer, k[t*stride:(t+1)*stride], v[t*stride:(t+1)*stride])
		}
		if layer == c.shape.Layers-1 {
			c.appended += n
		}
		return
	}
	pageCap := c.pageTokens * stride
	for len(k) > 0 {
		last := c.pageForAppend(layer)
		held := len(c.keyPages[layer][last])
		room := pageCap - held
		if room > len(k) {
			room = len(k)
		}
		if c.summaries {
			// Fold token by token: room is always a whole number of tokens
			// (page capacity and the span are both multiples of stride), and
			// the per-token fold makes the summary independent of how the
			// span happens to split across pages.
			summ := c.kSumms[layer][last]
			for t := 0; t < room/stride; t++ {
				summUpdateSeg(summ, stride, 0, k[t*stride:(t+1)*stride], held == 0 && t == 0)
			}
		}
		c.keyPages[layer][last] = append(c.keyPages[layer][last], k[:room]...)
		c.valPages[layer][last] = append(c.valPages[layer][last], v[:room]...)
		k, v = k[room:], v[room:]
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// pageForAppend returns the page index the next token's K/V goes into,
// opening a fresh page — budget-checked, never touching full (possibly
// shared) pages — when the current one is full.
func (c *PagedKV) pageForAppend(layer int) int {
	stride := c.stride()
	pages := c.keyPages[layer]
	if len(pages) == 0 || len(pages[len(pages)-1]) == c.pageTokens*stride {
		if c.maxPages > 0 && len(pages) >= c.maxPages {
			panic(fmt.Errorf("%w: unreserved append past %d-page budget", ErrOutOfPages, c.maxPages))
		}
		c.keyPages[layer] = append(c.keyPages[layer], make([]float32, 0, c.pageTokens*stride))
		c.valPages[layer] = append(c.valPages[layer], make([]float32, 0, c.pageTokens*stride))
		if c.summaries {
			c.summOpenPage(layer)
		}
	}
	return len(c.keyPages[layer]) - 1
}

// KVPages implements PageReader with zero copies and zero allocation. A
// quantized cache has no fp32 pages to stream — readers must dispatch on
// QuantReader first (the model's hot path does); calling KVPages on one is a
// contract violation and panics rather than silently attending over nothing.
func (c *PagedKV) KVPages(layer int) (keyPages, valPages [][]float32, stride int) {
	if c.qbits != 0 {
		panic("kvcache: KVPages on a quantized cache; read QuantPages instead")
	}
	return c.keyPages[layer], c.valPages[layer], c.stride()
}

// Seq returns per-token views spanning the pages — the generic (allocating)
// read path; hot paths should stream KVPages instead.
func (c *PagedKV) Seq(layer, head int) (keys, values [][]float32) {
	if c.qbits != 0 {
		return c.seqQuant(layer, head)
	}
	d := c.shape.HeadDim
	stride := c.stride()
	off := head * d
	n := c.Len(layer, head)
	keys = make([][]float32, 0, n)
	values = make([][]float32, 0, n)
	for p := range c.keyPages[layer] {
		kp, vp := c.keyPages[layer][p], c.valPages[layer][p]
		for i := 0; i < len(kp)/stride; i++ {
			base := i*stride + off
			keys = append(keys, kp[base:base+d])
			values = append(values, vp[base:base+d])
		}
	}
	return keys, values
}

// Positions returns 0..n-1: the paged cache retains every position.
func (c *PagedKV) Positions(layer, head int) []int {
	n := c.Len(layer, head)
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// Len reports the retained entry count for a head (uniform for PagedKV).
func (c *PagedKV) Len(layer, head int) int {
	if c.qbits != 0 {
		return c.qLen(layer)
	}
	stride := c.stride()
	n := 0
	for _, p := range c.keyPages[layer] {
		n += len(p) / stride
	}
	return n
}

// TotalAppended reports how many tokens have been appended.
func (c *PagedKV) TotalAppended() int { return c.appended }

// ClonePrefixN returns a new cache holding exactly c's first n tokens — the
// paged data-plane counterpart of SharingAllocator.Fork. The n/PageTokens
// whole pages are shared by reference, which is safe because a full page is
// immutable (Append only ever writes the partial last page or opens a new
// one). The remaining n%PageTokens tokens are deep-copied into a private page
// of full capacity — whether they are c's own partial tail or the head of one
// of its full pages — with their codes and float16 parameters when quantized
// and their key summary folded afresh over just those tokens, so the clone and
// the original can each keep appending without touching the other:
// copy-on-write at clone time, at most one page per layer. Because stored
// K/V, codes and summaries are pure functions of the appended sequence, the
// clone is bit-identical to a cold cache that appended the same n tokens,
// while the shared pages are stored once. The clone inherits the page budget.
// It panics if n is outside [0, TotalAppended()].
func (c *PagedKV) ClonePrefixN(n int) *PagedKV {
	if n < 0 || n > c.appended {
		panic(fmt.Sprintf("kvcache: clone of %d tokens from a cache holding %d", n, c.appended))
	}
	full, part := n/c.pageTokens, n%c.pageTokens
	pages := PagesFor(n, c.pageTokens)
	out := NewPagedKVQuant(c.shape, c.pageTokens, c.maxPages, c.qbits)
	if c.summaries {
		out.EnableKeySummaries()
	}
	out.appended, out.shared = n, full
	stride := c.stride()
	for l := 0; l < c.shape.Layers; l++ {
		if c.qbits != 0 {
			out.qPages[l] = make([]QuantPage, pages)
			copy(out.qPages[l], c.qPages[l][:full])
			if part > 0 {
				out.qPages[l][full] = c.quantPageHead(&c.qPages[l][full], part)
			}
		} else {
			out.keyPages[l] = clonePages(c.keyPages[l], full, part*stride, c.pageTokens*stride)
			out.valPages[l] = clonePages(c.valPages[l], full, part*stride, c.pageTokens*stride)
		}
		if c.summaries {
			out.kSumms[l] = make([][]float32, pages)
			copy(out.kSumms[l], c.kSumms[l][:full])
			if part > 0 {
				out.kSumms[l][full] = out.foldSummary(l, full)
			}
		}
	}
	return out
}

// ClonePrefix is ClonePrefixN over everything appended so far.
func (c *PagedKV) ClonePrefix() *PagedKV { return c.ClonePrefixN(c.appended) }

// clonePages shares the first full pages by reference and, when head > 0,
// deep-copies the first head elements of the next page into a private page
// of full capacity so in-place growth works.
func clonePages(pages [][]float32, full, head, pageCap int) [][]float32 {
	out := append(make([][]float32, 0, full+1), pages[:full]...)
	if head > 0 {
		out = append(out, append(make([]float32, 0, pageCap), pages[full][:head]...))
	}
	return out
}

// Page is one page's storage across every layer, held by reference: the
// handle a prefix cache keeps on a sealed page after the cache that filled it
// is gone, and hands to later caches that start from it. A full page is
// immutable, so any number of caches may adopt the same Page.
type Page struct {
	keys, vals [][]float32 // [layer], full-precision caches
	quant      []QuantPage // [layer], quantized caches
	summ       [][]float32 // [layer], when key summaries are on
}

// PageAt returns page i of every layer by reference. The handle is safe to
// share only while nothing appends to that page: always for a full page, and
// for the partial last page only once its cache has stopped growing.
func (c *PagedKV) PageAt(i int) Page {
	var p Page
	if c.qbits != 0 {
		p.quant = make([]QuantPage, c.shape.Layers)
	} else {
		p.keys = make([][]float32, c.shape.Layers)
		p.vals = make([][]float32, c.shape.Layers)
	}
	if c.summaries {
		p.summ = make([][]float32, c.shape.Layers)
	}
	for l := 0; l < c.shape.Layers; l++ {
		if c.qbits != 0 {
			p.quant[l] = c.qPages[l][i]
		} else {
			p.keys[l], p.vals[l] = c.keyPages[l][i], c.valPages[l][i]
		}
		if c.summaries {
			p.summ[l] = c.kSumms[l][i]
		}
	}
	return p
}

// AdoptPage appends p to the cache by reference, as ClonePrefixN shares a
// full page: no K/V is copied and nothing is recomputed. Every page already
// in the cache must be full, and p must come from a cache of the same shape,
// page size, code width and summary setting. A partial p may be adopted only
// last and only to be cloned (ClonePrefixN deep-copies it): appending to the
// adopting cache would write into the shared page.
func (c *PagedKV) AdoptPage(p Page) {
	if c.appended%c.pageTokens != 0 {
		panic("kvcache: AdoptPage behind a partial page")
	}
	if (p.quant != nil) != (c.qbits != 0) || (p.summ != nil) != c.summaries {
		panic("kvcache: AdoptPage across page formats")
	}
	tokens := 0
	for l := 0; l < c.shape.Layers; l++ {
		if c.qbits != 0 {
			c.qPages[l] = append(c.qPages[l], p.quant[l])
			tokens = p.quant[l].Tokens(c.shape.KVHeads)
		} else {
			c.keyPages[l] = append(c.keyPages[l], p.keys[l])
			c.valPages[l] = append(c.valPages[l], p.vals[l])
			tokens = len(p.keys[l]) / c.stride()
		}
		if c.summaries {
			c.kSumms[l] = append(c.kSumms[l], p.summ[l])
		}
	}
	c.appended += tokens
	c.shared++
}

// SharedPages returns how many of the cache's per-layer pages alias
// another cache's storage (prefix reuse), for memory accounting.
func (c *PagedKV) SharedPages() int { return c.shared }

// MemoryBytes charges every allocated page at full capacity (K and V), in
// FP16-equivalent bytes — internal fragmentation included, as a paged engine
// actually pays it. Quantized pages charge their true compressed footprint
// (codes at the configured width plus float16 parameter pairs), so
// compression ratios reported against the FP16 baseline are genuine.
func (c *PagedKV) MemoryBytes() int64 {
	if c.qbits != 0 {
		var pages int64
		for l := range c.qPages {
			pages += int64(len(c.qPages[l]))
		}
		return pages * quantPageBytes(c.shape, c.pageTokens, c.qbits)
	}
	var pages int64
	for l := range c.keyPages {
		pages += int64(len(c.keyPages[l]))
	}
	return pages * int64(c.pageTokens) * int64(c.stride()) * 2 * BytesPerElemFP16
}
