package kvcache

import (
	"fmt"
	"testing"
)

// cloneCache builds an empty cache of the given code width, with or without
// key summaries.
func cloneCache(pageTokens, bits int, summaries bool) *PagedKV {
	c := NewPagePool(qShape(), pageTokens, 0, bits, summaries).NewCache()
	return c
}

// growFlat appends the flat token-major spans to every layer, token by token.
func growFlat(c *PagedKV, k, v []float32) {
	stride := c.stride()
	for t := 0; t < len(k)/stride; t++ {
		for l := 0; l < c.shape.Layers; l++ {
			c.AppendFlatN(l, 1, k[t*stride:(t+1)*stride], v[t*stride:(t+1)*stride])
		}
	}
}

// cachesEqual requires a and b to read identically: token count, page count,
// every stored (dequantized) K/V value and every key summary.
func cachesEqual(t testing.TB, what string, a, b *PagedKV) {
	t.Helper()
	if a.TotalAppended() != b.TotalAppended() || a.Pages() != b.Pages() {
		t.Fatalf("%s: %d tokens in %d pages, want %d in %d", what, a.TotalAppended(), a.Pages(), b.TotalAppended(), b.Pages())
	}
	for l := 0; l < a.shape.Layers; l++ {
		for h := 0; h < a.shape.KVHeads; h++ {
			ak, av := a.Seq(l, h)
			bk, bv := b.Seq(l, h)
			if len(ak) != len(bk) {
				t.Fatalf("%s: layer %d head %d holds %d floats, want %d", what, l, h, len(ak), len(bk))
			}
			for i := range ak {
				if ak[i] != bk[i] || av[i] != bv[i] {
					t.Fatalf("%s: layer %d head %d token %d differs", what, l, h, i/a.shape.HeadDim)
				}
			}
		}
		as, bs := summariesOf(a, l), summariesOf(b, l)
		if len(as) != len(bs) {
			t.Fatalf("%s: layer %d has %d summary pages, want %d", what, l, len(as), len(bs))
		}
		for p := range as {
			for i := range as[p] {
				if as[p][i] != bs[p][i] {
					t.Fatalf("%s: layer %d summary page %d elem %d: %v != %v", what, l, p, i, as[p][i], bs[p][i])
				}
			}
		}
	}
}

// pageAddr identifies the storage behind page p of layer l.
func pageAddr(c *PagedKV, l, p int) any {
	r, _ := c.Rows(l, p, 0, false)
	if r.F32 == nil {
		return &r.Codes[0]
	}
	return &r.F32[0]
}

// sharedPages counts the leading pages of c that alias src's storage.
func sharedPages(c, src *PagedKV) int {
	n := 0
	for n < c.Pages() && n < src.Pages() && pageAddr(c, 0, n) == pageAddr(src, 0, n) {
		n++
	}
	return n
}

// checkClonePrefixN pins ClonePrefixN(n) on a source of `appended` tokens:
// the clone reads exactly like a cold cache of the first n tokens, shares the
// whole pages with the source and nothing else, and — after both keep
// appending different tokens — neither has seen the other's writes. The same
// must hold for a cache reassembled from the source's pages by reference.
func checkClonePrefixN(t testing.TB, pageTokens, bits int, summaries bool, appended, n int, seed int64) {
	t.Helper()
	shape := qShape()
	stride := shape.KVHeads * shape.HeadDim
	k, v := summFill(shape, appended, seed)
	ka, va := summFill(shape, pageTokens+1, seed+1)
	kb, vb := summFill(shape, pageTokens+2, seed+2)
	cold := func(parts ...[]float32) *PagedKV {
		c := cloneCache(pageTokens, bits, summaries)
		for i := 0; i < len(parts); i += 2 {
			growFlat(c, parts[i], parts[i+1])
		}
		return c
	}

	src := cold(k, v)
	adopted := cloneCache(pageTokens, bits, summaries)
	for p := 0; p < src.Pages(); p++ {
		adopted.AdoptPage(src.PageAt(p))
	}
	for _, from := range []struct {
		name string
		c    *PagedKV
	}{{"clone", src}, {"clone of adopted pages", adopted}} {
		clone := from.c.ClonePrefixN(n)
		cachesEqual(t, from.name, clone, cold(k[:n*stride], v[:n*stride]))
		if clone.summaries != summaries || clone.qbits != bits {
			t.Fatalf("%s lost its page format", from.name)
		}
		for l := 0; l < shape.Layers; l++ {
			for p := 0; p < n/pageTokens; p++ {
				if pageAddr(clone, l, p) != pageAddr(src, l, p) {
					t.Fatalf("%s: layer %d whole page %d was copied, want shared by reference", from.name, l, p)
				}
			}
			if p := n / pageTokens; n%pageTokens != 0 && pageAddr(clone, l, p) == pageAddr(src, l, p) {
				t.Fatalf("%s: layer %d partial page %d shares storage with the source", from.name, l, p)
			}
		}
		growFlat(clone, ka, va)
		cachesEqual(t, from.name+" after its own appends", clone, cold(k[:n*stride], v[:n*stride], ka, va))
	}
	growFlat(src, kb, vb)
	cachesEqual(t, "source after the clones' appends and its own", src, cold(k, v, kb, vb))
}

// TestClonePrefixNAliasing walks every prefix length of a source that ends in
// a partial page and of one that ends on a page boundary (so the deep-copied
// head also comes out of full source pages), on every page format.
func TestClonePrefixNAliasing(t *testing.T) {
	const pageTokens = 4
	for _, w := range summWidths {
		for _, summaries := range []bool{false, true} {
			for _, appended := range []int{11, 12} {
				t.Run(fmt.Sprintf("%s/summaries=%v/appended=%d", w.name, summaries, appended), func(t *testing.T) {
					for n := 0; n <= appended; n++ {
						checkClonePrefixN(t, pageTokens, w.bits, summaries, appended, n, int64(100*appended+n))
					}
				})
			}
		}
	}
}

func TestClonePrefixNOutOfRangePanics(t *testing.T) {
	c := cloneCache(4, 0, false)
	growFlat(c, make([]float32, 3*c.stride()), make([]float32, 3*c.stride()))
	for _, n := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ClonePrefixN(%d) of a 3-token cache did not panic", n)
				}
			}()
			c.ClonePrefixN(n)
		}()
	}
}

// FuzzClonePrefixN drives checkClonePrefixN from fuzzed sizes: any page size,
// source length, prefix length, code width and summary setting.
func FuzzClonePrefixN(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(11), uint8(6), uint8(0), false)
	f.Add(int64(2), uint8(4), uint8(12), uint8(9), uint8(1), true)
	f.Add(int64(3), uint8(1), uint8(5), uint8(5), uint8(2), true)
	f.Add(int64(4), uint8(16), uint8(40), uint8(17), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, pageTokens, appended, n, width uint8, summaries bool) {
		pt := int(pageTokens%32) + 1
		total := int(appended % 80)
		checkClonePrefixN(t, pt, []int{0, 8, 4}[width%3], summaries, total, int(n)%(total+1), seed)
	})
}
