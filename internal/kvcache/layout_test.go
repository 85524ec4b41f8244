package kvcache

import (
	"fmt"
	"slices"
	"testing"

	"rethinkkv/internal/tensor"
)

// TestPageLayoutRoundTrip pins the head-major page and its seal, at every
// code width and head dimensions of one panel, a pair and three (16, 32, 48),
// on 16-token pages filled twice and then a tail:
//   - every full page's keys are sealed and nothing else is;
//   - each token of each head read from Rows (TokenInto) is Seq's row and the
//     appended value — exactly for fp32, for codes what the encoder's own
//     codes of that slice dequantize to;
//   - ClonePrefixN(n) for every n in [0, 2·PageTokens] stores exactly what a
//     cold cache of the first n tokens stores, copying a sealed page's head
//     back into token rows;
//   - a cache that adopts a sealed page reads the same bits as the cache that
//     sealed it, and so does a clone of a head of that adopted page.
func TestPageLayoutRoundTrip(t *testing.T) {
	const pt = tensor.SealTokens
	for _, w := range summWidths {
		for _, hd := range []int{16, 32, 48} {
			t.Run(fmt.Sprintf("%s/hd=%d", w.name, hd), func(t *testing.T) {
				shape := Shape{Layers: 2, KVHeads: 3, HeadDim: hd}
				n := 2*pt + 5
				k, v := summFill(shape, n, int64(hd+w.bits))
				pool := NewPagePool(shape, pt, 0, w.bits, true)
				c := pool.NewCache()
				for l := 0; l < shape.Layers; l++ {
					c.AppendFlatN(l, n, k, v)
				}
				checkLayoutReads(t, c, k, v)

				cold := func(n int) *PagedKV {
					c := NewPagePool(shape, pt, 0, w.bits, true).NewCache()
					for l := 0; l < shape.Layers; l++ {
						c.AppendFlatN(l, n, k[:n*c.stride()], v[:n*c.stride()])
					}
					return c
				}
				for m := 0; m <= 2*pt; m++ {
					clone, want := c.ClonePrefixN(m), cold(m)
					what := fmt.Sprintf("ClonePrefixN(%d)", m)
					storageEqual(t, what, clone, want)
					cachesEqual(t, what, clone, want)
					clone.Release(m / pt)
				}

				h := c.PageAt(0)
				adopted := pool.NewCache()
				adopted.AdoptPage(h)
				for l := 0; l < shape.Layers; l++ {
					for head := 0; head < shape.KVHeads; head++ {
						for _, vals := range []bool{false, true} {
							g, gn := adopted.Rows(l, 0, head, vals)
							w, wn := c.Rows(l, 0, head, vals)
							if gn != wn || g.Sealed == vals || !bitsEqual(g.F32, w.F32) || string(g.Codes) != string(w.Codes) || !slices.Equal(g.Params, w.Params) {
								t.Fatalf("layer %d head %d vals=%v: the adopted sealed page reads differently", l, head, vals)
							}
						}
					}
				}
				checkLayoutReads(t, adopted, k[:pt*c.stride()], v[:pt*c.stride()])
				part, want := adopted.ClonePrefixN(pt/2), cold(pt/2)
				storageEqual(t, "clone of an adopted sealed page", part, want)
				cachesEqual(t, "clone of an adopted sealed page", part, want)
				part.Release(0)
				adopted.Release(1)
				c.Release(1)
				pool.PutPage(h)
			})
		}
	}
}

// checkLayoutReads requires every token of every head of c, read from its
// page rows, to be Seq's row and the appended one (k, v token-major) as the
// page codec stores it, and exactly the full pages' keys to be sealed.
func checkLayoutReads(t *testing.T, c *PagedKV, k, v []float32) {
	t.Helper()
	shape, bits := c.Shape(), c.qbits
	d, stride := shape.HeadDim, c.stride()
	got, want := make([]float32, d), make([]float32, d)
	codes, pair := make([]uint8, d), make([]uint16, 2)
	for l := 0; l < shape.Layers; l++ {
		for h := 0; h < shape.KVHeads; h++ {
			keys, vals := c.Seq(l, h)
			i := 0
			for p := 0; p < c.LayerPages(l); p++ {
				for vi, seq := range [][]float32{keys, vals} {
					r, n := c.Rows(l, p, h, vi == 1)
					if sealed := vi == 0 && n == c.pageTokens; r.Sealed != sealed {
						t.Fatalf("layer %d head %d page %d vals=%v: sealed %v, want %v", l, h, p, vi == 1, r.Sealed, sealed)
					}
					src := k
					if vi == 1 {
						src = v
					}
					for tk := 0; tk < n; tk++ {
						x := src[(i+tk)*stride+h*d:][:d]
						copy(want, x)
						if bits != 0 {
							tensor.QuantEncode(codes[:d*bits/8], pair, x, bits)
							enc := tensor.Rows{Codes: codes, Params: pair, Bits: bits}
							enc.TokenInto(want, 0, 0)
						}
						r.TokenInto(got, 0, tk)
						if row := seq[(i+tk)*d : (i+tk+1)*d]; !bitsEqual(got, want) || !bitsEqual(got, row) {
							t.Fatalf("layer %d head %d page %d token %d vals=%v: rows read %v, Seq %v, stored value %v", l, h, p, tk, vi == 1, got, row, want)
						}
					}
					if vi == 1 {
						i += n
					}
				}
			}
			if i*d != len(keys) {
				t.Fatalf("layer %d head %d: pages hold %d tokens, Seq %d", l, h, i, len(keys)/d)
			}
		}
	}
}
