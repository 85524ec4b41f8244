package kvcache

import (
	"math/rand"
	"testing"
)

// summFill generates n tokens of deterministic pseudo-random flat K/V.
func summFill(shape Shape, n int, seed int64) (k, v []float32) {
	stride := shape.KVHeads * shape.HeadDim
	r := rand.New(rand.NewSource(seed))
	k = make([]float32, n*stride)
	v = make([]float32, n*stride)
	for i := range k {
		k[i] = float32(r.NormFloat64())
		v[i] = float32(r.NormFloat64())
	}
	return k, v
}

// summCache builds an empty summaries-enabled cache at the given width.
func summCache(shape Shape, pageTokens, bits int) *PagedKV {
	return NewPagePool(shape, pageTokens, 0, bits, true).NewCache()
}

// summariesOf lists one layer's key summaries, aligned with its pages (nil
// entries when summaries are off).
func summariesOf(c *PagedKV, l int) [][]float32 {
	summs := make([][]float32, c.LayerPages(l))
	for p := range summs {
		summs[p] = c.KeySummary(l, p)
	}
	return summs
}

// summariesEqual compares two caches' summary metadata bit-for-bit.
func summariesEqual(t *testing.T, a, b *PagedKV) {
	t.Helper()
	for l := 0; l < a.Shape().Layers; l++ {
		sa, sb := summariesOf(a, l), summariesOf(b, l)
		if len(sa) != len(sb) {
			t.Fatalf("layer %d: %d vs %d summary pages", l, len(sa), len(sb))
		}
		for p := range sa {
			for i := range sa[p] {
				if sa[p][i] != sb[p][i] {
					t.Fatalf("layer %d page %d elem %d: %v != %v", l, p, i, sa[p][i], sb[p][i])
				}
			}
		}
	}
}

var summWidths = []struct {
	name string
	bits int
}{{"fp32", 0}, {"int8", 8}, {"int4", 4}}

// Summaries must hold the true elementwise min/max of the keys a reader
// actually sees (Seq dequantizes for quant caches, so the bound covers the
// streamed values, not the pre-quantization floats).
func TestKeySummariesBoundStoredKeys(t *testing.T) {
	for _, w := range summWidths {
		t.Run(w.name, func(t *testing.T) {
			shape := qShape()
			const pageTokens, n = 4, 11
			c := summCache(shape, pageTokens, w.bits)
			k, v := summFill(shape, n, 7)
			stride := shape.KVHeads * shape.HeadDim
			for tk := 0; tk < n; tk++ {
				for l := 0; l < shape.Layers; l++ {
					c.AppendFlatN(l, 1, k[tk*stride:(tk+1)*stride], v[tk*stride:(tk+1)*stride])
				}
			}
			d := shape.HeadDim
			for l := 0; l < shape.Layers; l++ {
				summs := summariesOf(c, l)
				if want := c.Pages(); len(summs) != want {
					t.Fatalf("layer %d: %d summaries for %d pages", l, len(summs), want)
				}
				for h := 0; h < shape.KVHeads; h++ {
					keys, _ := c.Seq(l, h)
					for p := range summs {
						lo, hi := p*pageTokens, (p+1)*pageTokens
						if hi > len(keys)/d {
							hi = len(keys) / d
						}
						for ch := 0; ch < d; ch++ {
							mn, mx := keys[lo*d+ch], keys[lo*d+ch]
							for i := lo + 1; i < hi; i++ {
								if keys[i*d+ch] < mn {
									mn = keys[i*d+ch]
								}
								if keys[i*d+ch] > mx {
									mx = keys[i*d+ch]
								}
							}
							off := h*d + ch
							if summs[p][off] != mn || summs[p][stride+off] != mx {
								t.Fatalf("%s l%d h%d p%d ch%d: summary (%v,%v) want (%v,%v)",
									w.name, l, h, p, ch, summs[p][off], summs[p][stride+off], mn, mx)
							}
						}
					}
				}
			}
		})
	}
}

// A preemption drops the cache and replays the identical token sequence
// into a fresh one; the summaries must come back bit-identical — including
// when the replay arrives through AppendFlatN in chunk splits that cross
// page boundaries (the chunked-prefill recompute path).
func TestKeySummariesRecomputeBitIdentical(t *testing.T) {
	for _, w := range summWidths {
		t.Run(w.name, func(t *testing.T) {
			shape := qShape()
			const pageTokens, n = 4, 13
			stride := shape.KVHeads * shape.HeadDim
			k, v := summFill(shape, n, 11)

			one := summCache(shape, pageTokens, w.bits)
			for tk := 0; tk < n; tk++ {
				for l := 0; l < shape.Layers; l++ {
					one.AppendFlatN(l, 1, k[tk*stride:(tk+1)*stride], v[tk*stride:(tk+1)*stride])
				}
			}
			// Chunk splits chosen to open, straddle, and exactly fill pages.
			for _, chunks := range [][]int{{13}, {3, 5, 5}, {4, 4, 4, 1}, {1, 7, 2, 3}} {
				redo := summCache(shape, pageTokens, w.bits)
				off := 0
				for _, cn := range chunks {
					for l := 0; l < shape.Layers; l++ {
						redo.AppendFlatN(l, cn, k[off*stride:(off+cn)*stride], v[off*stride:(off+cn)*stride])
					}
					off += cn
				}
				summariesEqual(t, one, redo)
			}
		})
	}
}

// ClonePrefix must share sealed summary pages by reference, deep-copy the
// partial tail, and leave both caches folding independently — each ending
// bit-identical to a cold cache of its own full sequence.
func TestKeySummariesClonePrefix(t *testing.T) {
	for _, w := range summWidths {
		t.Run(w.name, func(t *testing.T) {
			shape := qShape()
			const pageTokens, n = 4, 10 // 2 sealed pages + 2-token partial tail
			stride := shape.KVHeads * shape.HeadDim
			k, v := summFill(shape, n, 3)
			ka, va := summFill(shape, 6, 5)
			kb, vb := summFill(shape, 6, 9)

			base := summCache(shape, pageTokens, w.bits)
			for tk := 0; tk < n; tk++ {
				for l := 0; l < shape.Layers; l++ {
					base.AppendFlatN(l, 1, k[tk*stride:(tk+1)*stride], v[tk*stride:(tk+1)*stride])
				}
			}
			clone := base.ClonePrefix()
			if !clone.summaries {
				t.Fatal("clone lost summaries")
			}
			bs, cs := summariesOf(base, 0), summariesOf(clone, 0)
			for p := 0; p < 2; p++ { // sealed pages alias
				if &bs[p][0] != &cs[p][0] {
					t.Fatalf("sealed summary page %d not shared", p)
				}
			}
			if &bs[2][0] == &cs[2][0] {
				t.Fatal("partial tail summary shared; appends would corrupt the sibling")
			}

			// Diverge: base continues with ka, clone with kb.
			grow := func(c *PagedKV, gk, gv []float32) {
				for tk := 0; tk < len(gk)/stride; tk++ {
					for l := 0; l < shape.Layers; l++ {
						c.AppendFlatN(l, 1, gk[tk*stride:(tk+1)*stride], gv[tk*stride:(tk+1)*stride])
					}
				}
			}
			grow(base, ka, va)
			grow(clone, kb, vb)

			coldA := summCache(shape, pageTokens, w.bits)
			grow(coldA, append(append([]float32(nil), k...), ka...), append(append([]float32(nil), v...), va...))
			coldB := summCache(shape, pageTokens, w.bits)
			grow(coldB, append(append([]float32(nil), k...), kb...), append(append([]float32(nil), v...), vb...))
			summariesEqual(t, base, coldA)
			summariesEqual(t, clone, coldB)
		})
	}
}

// One-token and batched AppendFlatN must fold the identical summaries for the
// same token sequence.
func TestKeySummariesAppendFormsAgree(t *testing.T) {
	for _, w := range summWidths {
		t.Run(w.name, func(t *testing.T) {
			shape := qShape()
			const pageTokens, n = 4, 9
			stride := shape.KVHeads * shape.HeadDim
			k, v := summFill(shape, n, 21)

			flat := summCache(shape, pageTokens, w.bits)
			batch := summCache(shape, pageTokens, w.bits)
			for tk := 0; tk < n; tk++ {
				kt, vt := k[tk*stride:(tk+1)*stride], v[tk*stride:(tk+1)*stride]
				for l := 0; l < shape.Layers; l++ {
					flat.AppendFlatN(l, 1, kt, vt)
				}
			}
			for l := 0; l < shape.Layers; l++ {
				batch.AppendFlatN(l, n, k, v)
			}
			summariesEqual(t, flat, batch)
		})
	}
}

// Summaries are the pool's setting, fixed when the pool is made: a cache of a
// summaries-off pool hands out none, one of a summaries-on pool one per page.
func TestKeySummariesEnableContractAndBytes(t *testing.T) {
	shape := qShape()
	k, v := summFill(shape, 1, 1)
	for _, on := range []bool{false, true} {
		c := NewPagePool(shape, 4, 0, 0, on).NewCache()
		for l := 0; l < shape.Layers; l++ {
			c.AppendFlatN(l, 1, k, v)
		}
		if got := c.KeySummary(0, 0) != nil; got != on {
			t.Fatalf("pool summaries %v: cache hands out a summary: %v", on, got)
		}
	}
}
