package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rethinkkv/internal/tensor"
)

// TestPagePoolCycleAllocFree pins the pool's reason to exist: once warm, a
// cache's whole life — drawn from the pool, three pages in every layer, its
// first page sealed into a handle, a clone sharing that page and copying the
// head of the next, then the clone, the cache and the handle given back —
// allocates nothing, on every page format.
func TestPagePoolCycleAllocFree(t *testing.T) {
	const pt = 4
	shape := qShape()
	k, v := summFill(shape, 3*pt, 1)
	for _, w := range summWidths {
		for _, summaries := range []bool{false, true} {
			pool := NewPagePool(shape, pt, 0, w.bits, summaries)
			cycle := func() {
				c := pool.NewCache()
				for l := 0; l < shape.Layers; l++ {
					c.AppendFlatN(l, 3*pt, k, v)
				}
				h := c.PageAt(0)
				clone := c.ClonePrefixN(pt + 1)
				clone.Release(1)
				c.Release(1)
				pool.PutPage(h)
			}
			cycle()
			if a := testing.AllocsPerRun(100, cycle); a != 0 {
				t.Errorf("%s summaries=%v: %.1f allocs per cycle, want 0", w.name, summaries, a)
			}
			if pool.Out() != 0 {
				t.Errorf("%s summaries=%v: %d pages still out after the cycles", w.name, summaries, pool.Out())
			}
		}
	}
}

// TestSealAppendAllocFree pins the seal at 0 allocations: on a warm pool, a
// cache appending one token at a time across two page seals, then given
// back, allocates nothing at fp32 and int8 (head dimension 32, the ZMM
// re-lay's shape): the seal's scratch is the pool's, not the call's.
func TestSealAppendAllocFree(t *testing.T) {
	const pt = tensor.SealTokens
	shape := Shape{Layers: 2, KVHeads: 2, HeadDim: 32}
	stride := shape.KVHeads * shape.HeadDim
	k, v := summFill(shape, 2*pt+1, 1)
	for _, bits := range []int{0, 8} {
		pool := NewPagePool(shape, pt, 0, bits, false)
		cycle := func() {
			c := pool.NewCache()
			for i := 0; i < 2*pt+1; i++ {
				for l := 0; l < shape.Layers; l++ {
					c.AppendFlatN(l, 1, k[i*stride:(i+1)*stride], v[i*stride:(i+1)*stride])
				}
			}
			c.Release(0)
		}
		cycle()
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("bits=%d: %.1f allocs per cycle across two seals, want 0", bits, a)
		}
	}
}

// poolCache is one live cache of checkPagePoolAliasing with what a cold cache
// needs to rebuild it: the flat K/V of every token it holds, and the handles
// its leading pages are — the pages it reads but does not own — and the
// pages its promise still holds.
type poolCache struct {
	c       *PagedKV
	k, v    []float32
	shared  []*poolHandle
	promise int
}

// poolHandle is a sealed page: its handle, its tokens, and how many live
// caches hold it.
type poolHandle struct {
	h    Page
	k, v []float32
	refs int
}

// checkPagePoolAliasing runs a byte-coded sequence of cache operations over
// one shared pool, following the ownership rule a serving engine follows: a
// cache owns the pages it opened, a sealed page is its handle's, a cache
// shares by reference only pages a handle owns, and a handle goes back only
// once no cache holds its page. After every operation each live cache must
// store exactly what a cold cache that appended the same tokens stores —
// which fails if a page reached two owners or came back from the pool
// holding a former owner's bytes — and the pool must have out exactly the
// pages the live caches own plus the handles'. Under a budget (budget > 0
// pages) the pool's promises are held to a model too: no promise is ever
// negative, the caches' promises sum to the pool's, Reserve fails exactly
// when the larger promise would not fit, an append that must open a page no
// promise covers past the budget panics with ErrOutOfPages (the cache, torn
// between layers, is released), and Release gives the promise back.
func checkPagePoolAliasing(t testing.TB, seed int64, pageTokens, budget, bits int, summaries bool, ops []byte) {
	t.Helper()
	shape := qShape()
	stride := shape.KVHeads * shape.HeadDim
	pt := pageTokens
	r := rand.New(rand.NewSource(seed))
	pool := NewPagePool(shape, pt, budget, bits, summaries)
	var caches []*poolCache
	var handles []*poolHandle
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	appendAll := func(c *PagedKV, k, v []float32) {
		for l := 0; l < shape.Layers; l++ {
			c.AppendFlatN(l, len(k)/stride, k, v)
		}
	}
	cold := func(k, v []float32) *PagedKV {
		c := NewPagePool(shape, pt, 0, bits, summaries).NewCache()
		appendAll(c, k, v)
		return c
	}
	// adopt builds a fresh cache from up to three of the held handles, by
	// reference.
	adopt := func() *poolCache {
		pc := &poolCache{c: pool.NewCache()}
		for n := next() % 4; n > 0 && len(handles) > 0; n-- {
			h := handles[next()%len(handles)]
			pc.c.AdoptPage(h.h)
			pc.k, pc.v = append(pc.k, h.k...), append(pc.v, h.v...)
			pc.shared = append(pc.shared, h)
			h.refs++
		}
		return pc
	}
	// clone is pc's first n tokens, sharing the handles among its n/pt whole
	// pages.
	clone := func(pc *poolCache, n int) *poolCache {
		out := &poolCache{c: pc.c.ClonePrefixN(n), k: pc.k[: n*stride : n*stride], v: pc.v[: n*stride : n*stride]}
		out.shared = append(out.shared, pc.shared[:n/pt]...)
		for _, h := range out.shared {
			h.refs++
		}
		return out
	}
	release := func(pc *poolCache) {
		before, held := pool.Promised(), pc.c.Promised()
		pc.c.Release(len(pc.shared))
		if got := before - pool.Promised(); got != held || pc.c.Promised() != 0 {
			t.Fatalf("release gave back %d promised layer-pages, the cache held %d", got, held)
		}
		for _, h := range pc.shared {
			h.refs--
		}
	}
	// over reports whether charging extra more pages would pass the budget.
	over := func(extra int) bool { return budget > 0 && extra > 0 && pool.Charged()+extra > budget }

	for step := 0; len(ops) > 0 && step < 48; step++ {
		op := next() % 9
		var pc *poolCache
		at := 0
		if len(caches) > 0 {
			at = next() % len(caches)
			pc = caches[at]
		}
		switch {
		case op == 0 || pc == nil && op != 4 && op != 5: // a new, empty cache
			caches = append(caches, &poolCache{c: pool.NewCache()})
		case op == 1: // append a span of 0 to 2*pt+1 tokens
			n := next() % (2*pt + 2)
			tokens := len(pc.k) / stride
			opens := PagesFor(tokens+n, pt) - PagesFor(tokens, pt)
			k, v := splitFill(r, shape, n)
			if over(opens - pc.promise) {
				func() {
					defer func() {
						if err, ok := recover().(error); !ok || !errors.Is(err, ErrOutOfPages) {
							t.Fatalf("step %d: unpromised append past the %d-page budget did not panic with ErrOutOfPages (%d charged, %d to open, %d promised)",
								step, budget, pool.Charged(), opens, pc.promise)
						}
					}()
					appendAll(pc.c, k, v)
				}()
				release(pc)
				caches = append(caches[:at], caches[at+1:]...)
				break
			}
			appendAll(pc.c, k, v)
			pc.k, pc.v = append(pc.k, k...), append(pc.v, v...)
			pc.promise = max(pc.promise-opens, 0)
		case op == 2: // clone a prefix whose whole pages handles own
			tokens := len(pc.k) / stride
			n := next() % (min(tokens, len(pc.shared)*pt+pt-1) + 1)
			caches = append(caches, clone(pc, n))
		case op == 3: // hand the next whole (on 16-token pages, sealed) page to a handle
			i := len(pc.shared)
			if (i+1)*pt > len(pc.k)/stride {
				continue
			}
			h := &poolHandle{h: pc.c.PageAt(i), k: pc.k[i*pt*stride : (i+1)*pt*stride], v: pc.v[i*pt*stride : (i+1)*pt*stride], refs: 1}
			handles = append(handles, h)
			pc.shared = append(pc.shared, h)
		case op == 4: // a cache starting from cached pages
			caches = append(caches, adopt())
		case op == 5: // admission through a cached page the match ends inside
			tmp := adopt()
			if len(tmp.shared) == 0 {
				release(tmp)
				continue
			}
			n := (len(tmp.shared)-1)*pt + 1 + next()%pt
			caches = append(caches, clone(tmp, n))
			release(tmp)
		case op == 6: // release a cache
			release(pc)
			caches = append(caches[:at], caches[at+1:]...)
		case op == 8: // promise the pages 0 to 2*pt+1 more tokens need
			n := next() % (2*pt + 2)
			tokens := len(pc.k) / stride
			want := PagesFor(tokens+n, pt) - PagesFor(tokens, pt)
			fail, charged := over(want-pc.promise), pool.Charged()
			err := pc.c.Reserve(n)
			if fail != (err != nil) || err != nil && !errors.Is(err, ErrOutOfPages) {
				t.Fatalf("step %d: Reserve(%d) = %v with %d charged of %d, %d promised, %d wanted", step, n, err, charged, budget, pc.promise, want)
			}
			if err == nil {
				pc.promise = want
			}
		default: // give back a handle no cache holds
			for i, h := range handles {
				if h.refs == 0 {
					pool.PutPage(h.h)
					handles = append(handles[:i], handles[i+1:]...)
					break
				}
			}
		}

		owned, promised := shape.Layers*len(handles), 0
		for i, pc := range caches {
			if got := pc.c.Promised(); got < 0 || got != shape.Layers*pc.promise {
				t.Fatalf("step %d op %d cache %d: %d layer-pages promised, want %d", step, op, i, got, shape.Layers*pc.promise)
			}
			promised += pc.c.Promised()
			what := fmt.Sprintf("step %d op %d cache %d", step, op, i)
			want := cold(pc.k, pc.v)
			storageEqual(t, what, pc.c, want)
			cachesEqual(t, what, pc.c, want)
			for l := 0; l < shape.Layers; l++ {
				owned += pc.c.LayerPages(l) - len(pc.shared)
			}
		}
		if pool.Out() != owned {
			t.Fatalf("step %d op %d: pool has %d pages out, the caches and handles own %d", step, op, pool.Out(), owned)
		}
		if pool.Promised() != promised {
			t.Fatalf("step %d op %d: pool has %d layer-pages promised, the caches hold %d", step, op, pool.Promised(), promised)
		}
	}
	for _, pc := range caches {
		release(pc)
	}
	for _, h := range handles {
		pool.PutPage(h.h)
	}
	if pool.Out() != 0 || pool.Promised() != 0 {
		t.Fatalf("%d pages out and %d promised after everything was given back", pool.Out(), pool.Promised())
	}
}

// FuzzPagePoolAliasing drives checkPagePoolAliasing from fuzzed operation
// sequences, page sizes (1–8 tokens, and 16, whose full pages seal), page
// budgets (0 unbounded), code widths and summary settings.
func FuzzPagePoolAliasing(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0), false, []byte{0, 0, 1, 0, 9, 3, 0, 3, 0, 2, 0, 7, 4, 0, 2, 5, 0, 2, 1, 1, 0, 12, 6, 0, 7, 6, 0, 7})
	f.Add(int64(2), uint8(2), uint8(0), uint8(1), true, []byte{0, 0, 1, 0, 5, 3, 0, 3, 0, 5, 0, 2, 1, 0, 1, 2, 1, 4, 6, 0, 6, 0, 7, 0, 0, 1, 0, 3})
	f.Add(int64(3), uint8(3), uint8(0), uint8(2), true, []byte{0, 0, 1, 0, 7, 3, 0, 4, 0, 3, 0, 1, 2, 1, 3, 1, 1, 1, 6, 0, 2, 0, 6, 1, 7, 6, 0, 7})
	f.Add(int64(4), uint8(1), uint8(0), uint8(2), false, []byte{1, 0, 3, 3, 0, 3, 0, 5, 0, 2, 0, 1, 2, 2, 1, 1, 4, 0, 6, 1, 6, 0, 7, 7})
	// A released cache's half-filled page comes back to the next one.
	f.Add(int64(5), uint8(3), uint8(0), uint8(0), false, []byte{0, 1, 0, 6, 6, 0, 0, 1, 0, 1})
	f.Add(int64(6), uint8(3), uint8(0), uint8(2), true, []byte{0, 1, 0, 6, 6, 0, 0, 1, 0, 1})
	// Three pages: a promise opened in part, a second cache refused a
	// promise and then panicking on its unpromised page, a promise shrunk.
	f.Add(int64(7), uint8(1), uint8(3), uint8(0), false, []byte{0, 8, 0, 4, 1, 0, 5, 0, 0, 8, 1, 2, 1, 1, 1, 6, 0, 0, 8, 0, 3, 8, 0, 1, 1, 0, 4, 6, 0})
	// Two pages: a clone's tail page takes the pool past its budget; a
	// promise that does not grow still succeeds, one that grows fails.
	f.Add(int64(8), uint8(1), uint8(2), uint8(1), true, []byte{0, 1, 0, 4, 3, 0, 2, 0, 3, 8, 1, 0, 8, 1, 1, 8, 1, 2, 1, 1, 1, 1, 1, 1, 6, 0})
	// Sealed pages handed to handles, adopted, and cloned from their head.
	f.Add(int64(9), uint8(8), uint8(0), uint8(1), true, []byte{0, 1, 0, 33, 3, 0, 1, 0, 20, 3, 0, 4, 2, 2, 1, 0, 5, 1, 9, 2, 0, 30, 6, 0, 7})
	f.Add(int64(10), uint8(8), uint8(0), uint8(2), false, []byte{0, 1, 0, 17, 3, 0, 5, 0, 2, 1, 1, 0, 31, 2, 0, 18, 6, 0, 7, 4, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, pageTokens, budget, width uint8, summaries bool, ops []byte) {
		pt := int(pageTokens%9) + 1
		if pt == 9 {
			pt = tensor.SealTokens
		}
		checkPagePoolAliasing(t, seed, pt, int(budget%16), []int{0, 8, 4}[width%3], summaries, ops)
	})
}
