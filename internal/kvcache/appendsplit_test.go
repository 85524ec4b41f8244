package kvcache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file pins the Paged seam's contract on generated inputs: what a cache
// stores is a pure function of the appended token sequence — not of how the
// sequence was split into AppendFlatN calls — and what Rows yields is what
// Seq, the reference read path, gathers.

// splitCodecs are the stores behind Paged: Full's fp32 16-token pages, then
// PagedKV under every page codec.
var splitCodecs = []struct {
	name string
	bits int // -1: Full
}{{"full", -1}, {"fp32", 0}, {"int8", 8}, {"int4", 4}}

// splitFill generates n tokens of flat K/V whose head slices include what a
// codec can get wrong: constant slices (delta = 0), both zeros and denormals
// beside ordinary values. Every value is finite.
func splitFill(r *rand.Rand, shape Shape, n int) (k, v []float32) {
	d := shape.HeadDim
	fill := func() []float32 {
		x := make([]float32, n*shape.KVHeads*d)
		negZero := float32(math.Copysign(0, -1))
		for s := 0; s < len(x); s += d {
			slice := x[s : s+d]
			switch r.Intn(6) {
			case 0: // constant, sometimes a zero of either sign
				c := []float32{0, negZero, float32(r.NormFloat64())}[r.Intn(3)]
				for j := range slice {
					slice[j] = c
				}
				continue
			case 1: // all denormal: the range underflows float16
				for j := range slice {
					slice[j] = math.Float32frombits(uint32(r.Intn(1<<23-1)) + 1)
				}
				continue
			}
			for j := range slice {
				switch r.Intn(8) {
				case 0:
					slice[j] = 0
				case 1:
					slice[j] = negZero
				case 2:
					slice[j] = -math.Float32frombits(uint32(r.Intn(1<<23-1)) + 1)
				default:
					slice[j] = float32(r.NormFloat64())
				}
			}
		}
		return x
	}
	return fill(), fill()
}

func bitsEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// storageEqual requires got to hold exactly want's bytes: counts, every
// page's rows for every head (fp32 rows, or codes and parameters, whole
// buffers), and every key summary.
func storageEqual(t testing.TB, what string, got, want Paged) {
	t.Helper()
	shape := want.Shape()
	if got.TotalAppended() != want.TotalAppended() || got.MemoryBytes() != want.MemoryBytes() {
		t.Fatalf("%s: %d tokens in %d bytes, want %d in %d", what, got.TotalAppended(), got.MemoryBytes(), want.TotalAppended(), want.MemoryBytes())
	}
	if g, ok := got.(*PagedKV); ok {
		w := want.(*PagedKV)
		if g.Pages() != w.Pages() {
			t.Fatalf("%s: %d pages, want %d", what, g.Pages(), w.Pages())
		}
	}
	for l := 0; l < shape.Layers; l++ {
		if got.LayerPages(l) != want.LayerPages(l) {
			t.Fatalf("%s: layer %d has %d pages, want %d", what, l, got.LayerPages(l), want.LayerPages(l))
		}
		for h := 0; h < shape.KVHeads; h++ {
			if got.Len(l, h) != want.Len(l, h) {
				t.Fatalf("%s: layer %d head %d holds %d tokens, want %d", what, l, h, got.Len(l, h), want.Len(l, h))
			}
			for p := 0; p < want.LayerPages(l); p++ {
				for _, vals := range []bool{false, true} {
					g, gn := got.Rows(l, p, h, vals)
					w, wn := want.Rows(l, p, h, vals)
					if gn != wn || !bitsEqual(g.F32, w.F32) || string(g.Codes) != string(w.Codes) || !slices.Equal(g.Params, w.Params) ||
						g.Bits != w.Bits || g.HeadStride != w.HeadStride || g.Sealed != w.Sealed {
						t.Fatalf("%s: layer %d page %d head %d vals=%v: stored rows differ", what, l, p, h, vals)
					}
				}
			}
		}
		for p := 0; p < want.LayerPages(l); p++ {
			if !bitsEqual(got.KeySummary(l, p), want.KeySummary(l, p)) {
				t.Fatalf("%s: layer %d page %d: key summaries differ", what, l, p)
			}
		}
	}
}

// rowsMatchSeq requires the page rows, dequantized token by token with the
// scalar reference, to be Seq's rows bit for bit.
func rowsMatchSeq(t testing.TB, what string, c Paged) {
	t.Helper()
	shape := c.Shape()
	d := shape.HeadDim
	buf := make([]float32, d)
	for l := 0; l < shape.Layers; l++ {
		for h := 0; h < shape.KVHeads; h++ {
			keys, values := c.Seq(l, h)
			i := 0
			for p := 0; p < c.LayerPages(l); p++ {
				for vi, seq := range [][]float32{keys, values} {
					r, n := c.Rows(l, p, h, vi == 1)
					for tk := 0; tk < n; tk++ {
						x := buf
						r.TokenInto(x, 0, tk)
						if (i+tk+1)*d > len(seq) || !bitsEqual(x, seq[(i+tk)*d:(i+tk+1)*d]) {
							t.Fatalf("%s: layer %d head %d page %d token %d (vals=%v): Rows and Seq differ", what, l, h, p, tk, vi == 1)
						}
					}
					if vi == 1 {
						i += n
					}
				}
			}
			if i*d != len(keys) || i != c.Len(l, h) {
				t.Fatalf("%s: layer %d head %d: pages hold %d tokens, Seq %d, Len %d", what, l, h, i, len(keys)/d, c.Len(l, h))
			}
		}
	}
}

// checkAppendSplitInvariant appends the same n generated tokens to two caches
// of one store — one AppendFlatN per token, and AppendFlatN over a random
// split (empty spans included) — and requires identical storage from both and
// Rows ≡ Seq on each.
func checkAppendSplitInvariant(t testing.TB, seed int64, shape Shape, pageTokens, bits int, summaries bool, n int) {
	t.Helper()
	mk := func() Paged {
		if bits < 0 {
			return NewFull(shape)
		}
		c := NewPagePool(shape, pageTokens, 0, bits, summaries).NewCache()
		return c
	}
	r := rand.New(rand.NewSource(seed))
	k, v := splitFill(r, shape, n)
	stride := shape.KVHeads * shape.HeadDim

	flat, split := mk(), mk()
	for tk := 0; tk < n; tk++ {
		for l := 0; l < shape.Layers; l++ {
			flat.AppendFlatN(l, 1, k[tk*stride:(tk+1)*stride], v[tk*stride:(tk+1)*stride])
		}
	}
	for off := 0; off < n; {
		cn := r.Intn(min(n-off, 2*pageTokens+2) + 1)
		for l := 0; l < shape.Layers; l++ {
			split.AppendFlatN(l, cn, k[off*stride:(off+cn)*stride], v[off*stride:(off+cn)*stride])
		}
		off += cn
	}
	storageEqual(t, "AppendFlatN split vs one token per call", split, flat)
	for _, c := range []Paged{flat, split} {
		rowsMatchSeq(t, "Rows vs Seq", c)
	}
}

// splitCase maps raw draws onto the seam's input space: 1–3 layers, 1–4 KV
// heads, head dimension 2–64 (even for int4), pages of 1–40 tokens, any
// store, 0–99 tokens.
func splitCase(layers, kvHeads, headDim, pageTokens, codec, n uint8) (Shape, int, int, int) {
	bits := splitCodecs[int(codec)%len(splitCodecs)].bits
	hd := int(headDim)%63 + 2
	if bits == 4 {
		hd += hd & 1
	}
	return Shape{Layers: int(layers)%3 + 1, KVHeads: int(kvHeads)%4 + 1, HeadDim: hd}, int(pageTokens)%40 + 1, bits, int(n) % 100
}

// TestAppendSplitInvariant runs the property over seeded random cases of
// every store, summaries on and off.
func TestAppendSplitInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 240; i++ {
		var b [5]uint8
		for j := range b {
			b[j] = uint8(r.Intn(256))
		}
		shape, pt, bits, n := splitCase(b[0], b[1], b[2], b[3], uint8(i), b[4])
		summaries := i/len(splitCodecs)%2 == 1
		t.Run(fmt.Sprintf("%d/%s", i, splitCodecs[i%len(splitCodecs)].name), func(t *testing.T) {
			checkAppendSplitInvariant(t, int64(i), shape, pt, bits, summaries, n)
		})
	}
}

// FuzzAppendSplitInvariant drives checkAppendSplitInvariant from fuzzed
// shapes, page sizes, stores, summary settings, lengths and value seeds.
func FuzzAppendSplitInvariant(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(2), uint8(3), uint8(0), false, uint8(11))
	f.Add(int64(2), uint8(0), uint8(3), uint8(14), uint8(15), uint8(1), true, uint8(40))
	f.Add(int64(3), uint8(2), uint8(0), uint8(0), uint8(0), uint8(2), true, uint8(9))
	f.Add(int64(4), uint8(1), uint8(2), uint8(61), uint8(39), uint8(3), true, uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, layers, kvHeads, headDim, pageTokens, codec uint8, summaries bool, n uint8) {
		shape, pt, bits, tokens := splitCase(layers, kvHeads, headDim, pageTokens, codec, n)
		checkAppendSplitInvariant(t, seed, shape, pt, bits, summaries, tokens)
	})
}
