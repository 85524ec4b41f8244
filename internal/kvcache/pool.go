package kvcache

import (
	"fmt"

	"rethinkkv/internal/tensor"
)

// PagePool is the one place PagedKV caches of one page format get their
// memory and give it back: per-layer pages, page tables (they travel with the
// cache object, which the pool recycles whole) and the Page handles a prefix
// cache keeps. Every cache draws from a pool — NewPagedKVQuant makes it a
// private one nobody returns anything to, a serving engine shares one across
// all its requests — so there is one allocation path whoever owns the cache.
//
// The pool keeps no reference counts. A page goes back exactly when its last
// owner lets go of it, and the owner knows when: a cache's private pages when
// the cache is released (Release), a shared page when the prefix cache that
// holds its handle drops it (PutPage). Whoever shares a page by reference
// (ClonePrefixN, AdoptPage) has to leave its return to that owner.
//
// A recycled page is cleared when it is handed out again, so it is
// byte-identical to a freshly made one: what a cache stores stays a pure
// function of the tokens appended to it, whatever the page held before.
//
// The pool is also the page ledger: it holds the page budget and counts the
// pages out and those promised to caches (Reserve) and not yet opened.
//
// A pool is not safe for concurrent use: the caches drawing from one must
// append, clone and release on one goroutine at a time.
type PagePool struct {
	shape      Shape
	pageTokens int
	qbits      int
	summaries  bool
	budget     int // pages per layer; 0 is unbounded

	sealF32   []float32 // one head's rows of a page: the seal's scratch
	sealCodes []uint8

	free     []page     // returned pages, cleared when handed out again
	handles  []Page     // returned handles, Layers entries each
	caches   []*PagedKV // released caches, their page tables truncated
	out      int        // pages handed out and not returned, one per layer
	promised int        // pages promised and not opened, one per layer
}

// NewPagePool returns an empty pool of pages with the given page size in
// tokens, page budget (maxPages pages in every layer; <= 0 is unbounded),
// code width (0 stores fp32, 4 or 8 quantized codes) and key summary
// setting. It panics on an invalid shape, a non-positive page size or an
// unsupported width; 4-bit packing requires an even head dimension, which
// RoPE already demands of the model.
func NewPagePool(shape Shape, pageTokens, maxPages, bits int, summaries bool) *PagePool {
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
	pp := &PagePool{shape: shape, pageTokens: pageTokens, qbits: bits, summaries: summaries, budget: max(maxPages, 0)}
	if ps := pageTokens * shape.HeadDim; pageTokens%tensor.SealTokens == 0 {
		if bits == 0 {
			pp.sealF32 = make([]float32, ps)
		} else {
			pp.sealCodes = make([]uint8, ps*bits/8)
		}
	}
	return pp
}

// NewCache returns an empty cache drawing from the pool, with no promise.
func (pp *PagePool) NewCache() *PagedKV {
	var c *PagedKV
	if n := len(pp.caches); n > 0 {
		c = pp.caches[n-1]
		pp.caches[n-1] = nil
		pp.caches = pp.caches[:n-1]
	} else {
		c = &PagedKV{shape: pp.shape, pageTokens: pp.pageTokens, qbits: pp.qbits, pool: pp, pages: make([][]page, pp.shape.Layers)}
	}
	c.summaries = pp.summaries
	return c
}

// Budget reports the page budget, in pages per layer; 0 is unbounded.
func (pp *PagePool) Budget() int { return pp.budget }

// Out reports the pages handed out and not yet returned, counted per layer: a
// cache holding n pages in every layer accounts for n*Layers of them.
func (pp *PagePool) Out() int { return pp.out }

// Promised reports the pages promised and not yet opened, counted like Out.
func (pp *PagePool) Promised() int { return pp.promised }

// Charged reports the pages out and promised, in pages per layer (exact
// between appends, when every layer has the same).
func (pp *PagePool) Charged() int { return (pp.out + pp.promised) / pp.shape.Layers }

// get hands out one layer's empty page: a returned one, cleared, or a fresh
// one of full capacity — one buffer for fp32, two (codes, params) when
// quantized, plus the summary slot when summaries are on.
func (pp *PagePool) get() page {
	pp.out++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free = pp.free[:n-1]
		clear(p.f32)
		clear(p.codes)
		clear(p.params)
		clear(p.summ)
		p.sealed = false
		return p
	}
	var p page
	elems := 2 * pp.pageTokens * pp.shape.KVHeads * pp.shape.HeadDim
	if pp.qbits == 0 {
		p.f32 = make([]float32, elems)
	} else {
		p.codes = make([]uint8, elems*pp.qbits/8)
		p.params = make([]uint16, 2*pp.pageTokens*pp.shape.KVHeads*2)
	}
	if pp.summaries {
		p.summ = make([]float32, 2*pp.shape.KVHeads*pp.shape.HeadDim)
	}
	return p
}

// put takes one layer's page back.
func (pp *PagePool) put(p page) {
	if pp.out--; pp.out < 0 {
		panic("kvcache: more pages returned to the pool than it handed out")
	}
	p.n = 0
	pp.free = append(pp.free, p)
}

// handle hands out an empty Page handle.
func (pp *PagePool) handle() Page {
	if n := len(pp.handles); n > 0 {
		h := pp.handles[n-1]
		pp.handles[n-1] = nil
		pp.handles = pp.handles[:n-1]
		return h
	}
	return make(Page, pp.shape.Layers)
}

// PutPage takes back a handle PageAt gave out together with its page in
// every layer: the caller is the page's last owner, and no cache that adopted
// it may still hold it.
func (pp *PagePool) PutPage(h Page) {
	for l := range h {
		pp.put(h[l])
		h[l] = page{}
	}
	pp.handles = append(pp.handles, h)
}

// Release gives the cache back to its pool: its promise, every page from index
// shared on in every layer, and the cache object with its page tables. The
// first shared pages of each layer belong to someone else — a prefix cache
// that holds their handles — and stay out. The cache must not be used again.
func (c *PagedKV) Release(shared int) {
	pp := c.pool
	pp.promised -= c.promised
	c.promised = 0
	for l, t := range c.pages {
		for i := shared; i < len(t); i++ {
			pp.put(t[i])
		}
		clear(t)
		c.pages[l] = t[:0]
	}
	c.appended = 0
	pp.caches = append(pp.caches, c)
}
