package kvcache

import (
	"errors"
	"fmt"

	"rethinkkv/internal/tensor"
)

// ErrOutOfPages is returned when a budgeted PagedKV cannot hold more
// tokens: the page-granular out-of-memory condition a real paged engine
// hits when the KV pool is exhausted. The continuous-batching scheduler
// (internal/sched) treats it as the preemption trigger. Test with
// errors.Is; the public facade re-exports it as rethinkkv.ErrOutOfPages.
var ErrOutOfPages = errors.New("kvcache: out of KV pages")

// PagedKV is a cache whose K/V live in fixed-size pages instead of one
// contiguous buffer: one table of pages per layer, each page holding up to
// PageTokens tokens in the cache's codec (qpage.go: fp32 rows, or int8/int4
// codes quantized at append), the last page partially filled. Pages are never
// copied or concatenated on read: attention streams them through Paged, and
// MemoryBytes charges whole allocated pages, making internal fragmentation
// visible exactly as a paged engine pays it.
type PagedKV struct {
	shape      Shape
	pageTokens int
	// maxPages bounds the per-layer page count (every layer grows in
	// lockstep, so the budget is counted once, not per layer); 0 means
	// unbounded. Exceeding it surfaces as ErrOutOfPages from Reserve —
	// never as silent overgrowth.
	maxPages int
	pages    [][]page // [layer][page]
	appended int
	// qbits is the page codec: 0 stores fp32 rows, 4 or 8 quantizes every
	// token's K/V to uniform codes that wide on append.
	qbits int
	// summaries turns on per-page key min/max metadata for Quest-style
	// sparse attention (summary.go); deq is the fold's dequantized key row.
	summaries bool
	deq       []float32
	// gather is Append's head-major staging token, allocated on first use.
	gather []float32
}

// NewPagedKV is NewPagedKVQuant with fp32 pages and no page budget.
func NewPagedKV(shape Shape, pageTokens int) *PagedKV {
	return NewPagedKVQuant(shape, pageTokens, 0, 0)
}

// NewPagedKVQuant allocates an empty paged cache with the given page size in
// tokens, a hard per-layer page budget (once the cache holds
// maxPages*PageTokens tokens, Reserve reports ErrOutOfPages instead of
// growing; maxPages <= 0 means unbounded) and a page codec: bits 0 stores
// fp32, 4 or 8 quantized codes. It panics on an invalid shape, a
// non-positive page size or an unsupported width; 4-bit packing requires an
// even head dimension, which RoPE already demands of the model.
func NewPagedKVQuant(shape Shape, pageTokens, maxPages, bits int) *PagedKV {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	if pageTokens <= 0 {
		panic("kvcache: non-positive page size")
	}
	if bits != 0 && bits != 4 && bits != 8 {
		panic(fmt.Sprintf("kvcache: unsupported quant width %d (want 4 or 8)", bits))
	}
	if bits == 4 && shape.HeadDim%2 != 0 {
		panic("kvcache: 4-bit KV quantization requires an even head dimension")
	}
	return &PagedKV{
		shape:      shape,
		pageTokens: pageTokens,
		maxPages:   max(maxPages, 0),
		pages:      make([][]page, shape.Layers),
		qbits:      bits,
	}
}

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

func (c *PagedKV) stride() int { return c.shape.KVHeads * c.shape.HeadDim }

// Append stores one token's K/V, given as per-head vectors, for the given
// layer: it gathers them head-major and appends through AppendFlatN, so the
// stored bytes and the page-opening and budget rules are that call's.
func (c *PagedKV) Append(layer int, k, v [][]float32) {
	if len(k) != c.shape.KVHeads || len(v) != c.shape.KVHeads {
		panic("kvcache: head count mismatch on append")
	}
	d, stride := c.shape.HeadDim, c.stride()
	if c.gather == nil {
		c.gather = make([]float32, 2*stride)
	}
	for h := range k {
		if len(k[h]) != d || len(v[h]) != d {
			panic("kvcache: head dim mismatch on append")
		}
		copy(c.gather[h*d:], k[h])
		copy(c.gather[stride+h*d:], v[h])
	}
	c.AppendFlatN(layer, 1, c.gather[:stride], c.gather[stride:])
}

// AppendFlatN implements Paged: the span is split across pages — filling the
// current partial page, then whole pages, then a trailing partial — each
// token stored in the page codec and, when summaries are on, folded into its
// page's key summary token by token, which makes codes and summaries
// independent of how a sequence happens to be split into calls. Under a page
// budget callers must Reserve first: appending past the budget is a caller
// contract violation and panics with ErrOutOfPages rather than silently
// overgrowing. Steady-state cost is a write into pre-allocated page capacity:
// no allocation except at page open.
func (c *PagedKV) AppendFlatN(layer, n int, k, v []float32) {
	if layer < 0 || layer >= c.shape.Layers {
		panic("kvcache: layer out of range")
	}
	stride := c.stride()
	if n < 0 || len(k) != n*stride || len(v) != len(k) {
		panic("kvcache: flat append length mismatch")
	}
	for rest := n; rest > 0; {
		p := c.pageForAppend(layer)
		t := min(c.pageTokens-p.n, rest)
		c.store(p, t, k[:t*stride], v[:t*stride])
		p.n += t
		if c.summaries {
			c.fold(p, p.n-t, p.n)
		}
		k, v, rest = k[t*stride:], v[t*stride:], rest-t
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// pageForAppend returns the page the next token's K/V goes into, opening a
// fresh one — budget-checked, never touching full (possibly shared) pages —
// when the current one is full.
func (c *PagedKV) pageForAppend(layer int) *page {
	pages := c.pages[layer]
	if len(pages) == 0 || pages[len(pages)-1].n == c.pageTokens {
		if c.maxPages > 0 && len(pages) >= c.maxPages {
			panic(fmt.Errorf("%w: unreserved append past %d-page budget", ErrOutOfPages, c.maxPages))
		}
		pages = append(pages, c.newPage())
		c.pages[layer] = pages
	}
	return &pages[len(pages)-1]
}

// LayerPages implements Paged.
func (c *PagedKV) LayerPages(layer int) int { return len(c.pages[layer]) }

// Rows implements Paged with zero copies and zero allocation.
func (c *PagedKV) Rows(layer, page, head int, vals bool) (tensor.Rows, int) {
	p := &c.pages[layer][page]
	return c.rows(p, head, vals), p.n
}

// Seq returns per-token views spanning the pages — the generic (allocating)
// read path and the scalar reference of the page walk: fp32 rows are viewed
// in place, codes dequantized with the block kernels' arithmetic
// (tensor.DequantSliceInto), so the two read paths are bit-identical.
func (c *PagedKV) Seq(layer, head int) (keys, values [][]float32) {
	d := c.shape.HeadDim
	n := c.Len(layer, head)
	keys = make([][]float32, 0, n)
	values = make([][]float32, 0, n)
	for i := range c.pages[layer] {
		p := &c.pages[layer][i]
		kr, vr := c.rows(p, head, false), c.rows(p, head, true)
		for t := 0; t < p.n; t++ {
			keys = append(keys, row(&kr, t, d, nil))
			values = append(values, row(&vr, t, d, nil))
		}
	}
	return keys, values
}

// row returns token t of r as fp32: a view of the page's own memory, or its
// codes dequantized into buf (a fresh slice when buf is nil).
func row(r *tensor.Rows, t, d int, buf []float32) []float32 {
	if r.F32 != nil {
		return r.F32[t*r.Stride : t*r.Stride+d]
	}
	if buf == nil {
		buf = make([]float32, d)
	}
	tensor.DequantSliceInto(buf, r.Codes, r.Params, r.Bits, r.Off, r.Stride, r.Heads, r.Head, t)
	return buf
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
	n := 0
	for i := range c.pages[layer] {
		n += c.pages[layer][i].n
	}
	return n
}

// TotalAppended reports how many tokens have been appended.
func (c *PagedKV) TotalAppended() int { return c.appended }

// ClonePrefixN returns a new cache holding exactly c's first n tokens. The
// n/PageTokens whole pages are shared by reference, which is safe because a
// full page is immutable (appends only ever write the partial last page or
// open a new one). The remaining n%PageTokens tokens are deep-copied into a
// private page of full capacity — whether they are c's own partial tail or the
// head of one of its full pages — with their codes and float16 parameters when
// quantized and their key summary folded afresh over just those tokens, so the
// clone and the original can each keep appending without touching the other:
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
	out := NewPagedKVQuant(c.shape, c.pageTokens, c.maxPages, c.qbits)
	if c.summaries {
		out.EnableKeySummaries()
	}
	out.appended = n
	for l := range c.pages {
		out.pages[l] = append(make([]page, 0, full+1), c.pages[l][:full]...)
		if part > 0 {
			out.pages[l] = append(out.pages[l], out.head(&c.pages[l][full], part))
		}
	}
	return out
}

// ClonePrefix is ClonePrefixN over everything appended so far.
func (c *PagedKV) ClonePrefix() *PagedKV { return c.ClonePrefixN(c.appended) }

// Page is one page's storage across every layer, held by reference: the
// handle a prefix cache keeps on a sealed page after the cache that filled it
// is gone, and hands to later caches that start from it. A full page is
// immutable, so any number of caches may adopt the same Page.
type Page []page

// PageAt returns page i of every layer by reference. The handle is safe to
// share only while nothing appends to that page: always for a full page, and
// for the partial last page only once its cache has stopped growing.
func (c *PagedKV) PageAt(i int) Page {
	p := make(Page, c.shape.Layers)
	for l := range p {
		p[l] = c.pages[l][i]
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
	if (p[0].codes != nil) != (c.qbits != 0) || (p[0].summ != nil) != c.summaries {
		panic("kvcache: AdoptPage across page formats")
	}
	for l := range c.pages {
		c.pages[l] = append(c.pages[l], p[l])
	}
	c.appended += p[0].n
}

// MemoryBytes charges every allocated page at full capacity (K and V) —
// internal fragmentation included, as a paged engine actually pays it: fp32
// pages in FP16-equivalent bytes, quantized pages at their true compressed
// footprint, so compression ratios reported against the FP16 baseline are
// genuine.
func (c *PagedKV) MemoryBytes() int64 {
	var pages int64
	for l := range c.pages {
		pages += int64(len(c.pages[l]))
	}
	return pages * c.pageBytes()
}
