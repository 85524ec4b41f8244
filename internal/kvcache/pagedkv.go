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
// visible exactly as a paged engine pays it. Pages come from the cache's
// PagePool (pool.go).
type PagedKV struct {
	shape      Shape
	pageTokens int
	pool       *PagePool
	pages      [][]page // [layer][page]
	appended   int
	promised   int // pages Reserve promised and no append opened, one per layer
	// qbits is the page codec: 0 stores fp32 rows, 4 or 8 quantizes every
	// token's K/V to uniform codes that wide on append.
	qbits int
	// summaries mirrors the pool's per-page key min/max metadata for
	// Quest-style sparse attention (summary.go); deq is the fold's
	// dequantized key row, allocated on first use.
	summaries bool
	deq       []float32
}

// NewPagedKV is NewPagedKVQuant with fp32 pages and no page budget.
func NewPagedKV(shape Shape, pageTokens int) *PagedKV {
	return NewPagedKVQuant(shape, pageTokens, 0, 0)
}

// NewPagedKVQuant returns an empty paged cache with the given page size in
// tokens, a hard per-layer page budget (once the cache holds
// maxPages*PageTokens tokens, Reserve reports ErrOutOfPages instead of
// growing; maxPages <= 0 means unbounded) and a page codec: bits 0 stores
// fp32, 4 or 8 quantized codes. Its pages and budget are a pool of its own,
// which its clones share; it panics where NewPagePool does.
func NewPagedKVQuant(shape Shape, pageTokens, maxPages, bits int) *PagedKV {
	return NewPagePool(shape, pageTokens, maxPages, bits, false).NewCache()
}

// PagesFor returns the page count needed to hold tokens tokens at the
// given page size.
func PagesFor(tokens, pageTokens int) int {
	return (tokens + pageTokens - 1) / pageTokens
}

// Pages returns the per-layer page count currently allocated.
func (c *PagedKV) Pages() int { return PagesFor(c.appended, c.pageTokens) }

// Reserve promises the cache, from its pool, the pages extraTokens more tokens
// need beyond those it holds; the promise replaces any earlier one. When the
// budget cannot take the larger promise, Reserve changes nothing and returns
// ErrOutOfPages itself (test with errors.Is): the non-panicking admission
// check a scheduler runs before prefilling, in a loop that evicts until it
// fits, so a refusal allocates nothing. Appends within it never fail.
func (c *PagedKV) Reserve(extraTokens int) error {
	pp, layers := c.pool, c.shape.Layers
	want := (PagesFor(c.appended+max(extraTokens, 0), c.pageTokens) - c.Pages()) * layers
	if grow := want - c.promised; pp.budget > 0 && grow > 0 && pp.out+pp.promised+grow > pp.budget*layers {
		return ErrOutOfPages
	}
	pp.promised += want - c.promised
	c.promised = want
	return nil
}

// Promised reports the pages the cache's promise holds, one per layer.
func (c *PagedKV) Promised() int { return c.promised }

// Shape returns the cache dimensions.
func (c *PagedKV) Shape() Shape { return c.shape }

func (c *PagedKV) stride() int { return c.shape.KVHeads * c.shape.HeadDim }

// AppendFlatN implements Cache: the span is split across pages — filling the
// current partial page, then whole pages, then a trailing partial — each
// token stored in the page codec and, when summaries are on, folded into its
// page's key summary token by token, and a page sealed the moment it fills
// (qpage.go), which makes codes, layout and summaries independent of how a
// sequence happens to be split into calls. Under a page
// budget callers must Reserve first: opening a page no promise covers past
// the budget is a caller contract violation and panics with ErrOutOfPages
// rather than silently overgrowing. Steady-state cost is a write into
// pre-allocated page capacity: no allocation except at page open.
func (c *PagedKV) AppendFlatN(layer, n int, k, v []float32) {
	c.shape.CheckSpan(layer, n, k, v)
	stride := c.stride()
	for rest := n; rest > 0; {
		p := c.pageForAppend(layer)
		t := min(c.pageTokens-p.n, rest)
		c.store(p, t, k[:t*stride], v[:t*stride])
		p.n += t
		if c.summaries {
			c.fold(p, p.n-t, p.n)
		}
		if p.n == c.pageTokens && c.seals() {
			c.seal(p)
		}
		k, v, rest = k[t*stride:], v[t*stride:], rest-t
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

// pageForAppend returns the page the next token's K/V goes into, opening a
// fresh one — never touching full (possibly shared) pages — when the current
// one is full: a promised one first, else one the pool's budget has room for.
func (c *PagedKV) pageForAppend(layer int) *page {
	pages := c.pages[layer]
	if len(pages) == 0 || pages[len(pages)-1].n == c.pageTokens {
		switch pp := c.pool; {
		case c.promised > 0:
			c.promised--
			pp.promised--
		case pp.budget > 0 && pp.out+pp.promised >= pp.budget*c.shape.Layers:
			panic(fmt.Errorf("%w: unpromised append past the %d-page budget", ErrOutOfPages, pp.budget))
		}
		pages = append(pages, c.pool.get())
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

// Seq gathers one head's rows across the pages into fresh flat slices — the
// reference read path, not the serving one: fp32 token rows are copied,
// sealed keys and codes read with the block kernels' arithmetic
// (tensor.Rows.TokenInto), so the two read paths are bit-identical.
func (c *PagedKV) Seq(layer, head int) (keys, values []float32) {
	d := c.shape.HeadDim
	n := c.Len(layer, head)
	keys, values = make([]float32, n*d), make([]float32, n*d)
	i := 0
	for p := range c.pages[layer] {
		pg := &c.pages[layer][p]
		kr, vr := c.rows(pg, head, false), c.rows(pg, head, true)
		for t := 0; t < pg.n; t, i = t+1, i+1 {
			kr.TokenInto(keys[i*d:(i+1)*d], 0, t)
			vr.TokenInto(values[i*d:(i+1)*d], 0, t)
		}
	}
	return keys, values
}

// row returns token t of r's first head as fp32: a view of the page's own
// token row, or read into buf from sealed rows or codes.
func row(r *tensor.Rows, t, d int, buf []float32) []float32 {
	if r.F32 != nil && !r.Sealed {
		return r.F32[t*d : t*d+d]
	}
	r.TokenInto(buf, 0, t)
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
// while the shared pages are stored once. The clone draws from c's pool with
// no promise, its tail page charged unchecked. It panics if n is outside
// [0, TotalAppended()].
func (c *PagedKV) ClonePrefixN(n int) *PagedKV {
	if n < 0 || n > c.appended {
		panic(fmt.Sprintf("kvcache: clone of %d tokens from a cache holding %d", n, c.appended))
	}
	full, part := n/c.pageTokens, n%c.pageTokens
	out := c.pool.NewCache()
	out.appended = n
	for l := range c.pages {
		out.pages[l] = append(out.pages[l], c.pages[l][:full]...)
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
// immutable, so any number of caches may adopt the same Page. Its holder
// gives it back with PagePool.PutPage once no cache holds the page any more.
type Page []page

// PageAt returns page i of every layer by reference, in a handle from c's
// pool. The handle is safe to share only while nothing appends to that page:
// always for a full page, and for the partial last page only once its cache
// has stopped growing.
func (c *PagedKV) PageAt(i int) Page {
	p := c.pool.handle()
	for l := range p {
		p[l] = c.pages[l][i]
	}
	return p
}

// AdoptPage appends p to the cache by reference, as ClonePrefixN shares a
// full page: no K/V is copied and nothing is recomputed. Every page already
// in the cache must be full, and p must come from a cache of the same shape,
// page size, code width and summary setting: a full page sealed exactly when
// this cache's pages seal, a partial one not. A partial p may be adopted only
// last and only to be cloned (ClonePrefixN deep-copies it): appending to the
// adopting cache would write into the shared page.
func (c *PagedKV) AdoptPage(p Page) {
	if c.appended%c.pageTokens != 0 {
		panic("kvcache: AdoptPage behind a partial page")
	}
	q := &p[0]
	if (q.codes != nil) != (c.qbits != 0) || (q.summ != nil) != c.summaries || q.sealed != (q.n == c.pageTokens && c.seals()) {
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
