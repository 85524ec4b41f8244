package kvcache

import (
	"errors"
	"math"
	"testing"
)

// fillToken builds one token's K/V as the flat head-major vectors
// AppendFlatN consumes.
func fillToken(shape Shape, seed int) (k, v []float32) {
	stride := shape.KVHeads * shape.HeadDim
	k = make([]float32, stride)
	v = make([]float32, stride)
	for i := range k {
		k[i] = float32(seed*31+i) / 7
		v[i] = float32(seed*17-i) / 5
	}
	return k, v
}

// fillSpan builds an n-token contiguous token-major K/V span (token t at
// offset t*stride), seeded per token like fillToken.
func fillSpan(shape Shape, n, seed int) (k, v []float32) {
	stride := shape.KVHeads * shape.HeadDim
	k = make([]float32, 0, n*stride)
	v = make([]float32, 0, n*stride)
	for t := 0; t < n; t++ {
		kF, vF := fillToken(shape, seed+t)
		k = append(k, kF...)
		v = append(v, vF...)
	}
	return k, v
}

// TestAppendFlatNMatchesAppendFlat pins the multi-token append against
// one-token AppendFlatN calls bit-for-bit on both flat-storage caches,
// across span sizes that leave pages partial, exactly full, and crossing
// multiple page boundaries from a non-aligned start.
func TestAppendFlatNMatchesAppendFlat(t *testing.T) {
	shape := Shape{Layers: 2, KVHeads: 3, HeadDim: 4}
	// Span sizes interleaved so PagedKV (pageTokens=4) sees partial fills,
	// exact fills, and multi-page spans starting mid-page.
	spans := []int{1, 3, 4, 9, 2, 0, 5}
	caches := []struct {
		name    string
		viaOne  Cache
		viaMany Cache
	}{
		{"full", NewFull(shape), NewFull(shape)},
		{"paged", NewPagedKV(shape, 4), NewPagedKV(shape, 4)},
	}
	for _, tc := range caches {
		many, ok := tc.viaMany.(Paged)
		if !ok {
			t.Fatalf("%s: no AppendFlatN", tc.name)
		}
		one := tc.viaOne.(Paged)
		stride := shape.KVHeads * shape.HeadDim
		seed := 0
		for _, n := range spans {
			k, v := fillSpan(shape, n, seed)
			seed += n
			for l := 0; l < shape.Layers; l++ {
				for tok := 0; tok < n; tok++ {
					one.AppendFlatN(l, 1, k[tok*stride:(tok+1)*stride], v[tok*stride:(tok+1)*stride])
				}
				many.AppendFlatN(l, n, k, v)
			}
		}
		if got, want := tc.viaMany.TotalAppended(), tc.viaOne.TotalAppended(); got != want {
			t.Fatalf("%s: appended %d != %d", tc.name, got, want)
		}
		for l := 0; l < shape.Layers; l++ {
			for h := 0; h < shape.KVHeads; h++ {
				wk, wv := tc.viaOne.Seq(l, h)
				gk, gv := tc.viaMany.Seq(l, h)
				if len(gk) != len(wk) {
					t.Fatalf("%s: seq len %d != %d", tc.name, len(gk), len(wk))
				}
				for i := range wk {
					if math.Float32bits(gk[i]) != math.Float32bits(wk[i]) ||
						math.Float32bits(gv[i]) != math.Float32bits(wv[i]) {
						t.Fatalf("%s: entry (%d,%d,%d,%d) differs", tc.name, l, h, i/shape.HeadDim, i%shape.HeadDim)
					}
				}
			}
		}
		// Page boundaries must match too, not just the logical sequence.
		for l := 0; l < shape.Layers; l++ {
			if got, want := many.LayerPages(l), one.LayerPages(l); got != want {
				t.Fatalf("%s: %d pages != %d", tc.name, got, want)
			}
			for p := 0; p < one.LayerPages(l); p++ {
				_, want := one.Rows(l, p, 0, false)
				if _, got := many.Rows(l, p, 0, false); got != want {
					t.Fatalf("%s: page %d holds %d tokens != %d", tc.name, p, got, want)
				}
			}
		}
	}
}

// TestAppendFlatNBudgetPanics verifies the multi-token append honours the
// page budget: a span that would open a page past the budget panics with
// ErrOutOfPages, exactly like token-at-a-time appends.
func TestAppendFlatNBudgetPanics(t *testing.T) {
	shape := Shape{Layers: 1, KVHeads: 1, HeadDim: 2}
	c := NewPagedKVQuant(shape, 2, 1, 0) // one 2-token page
	k, v := fillSpan(shape, 3, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic past budget")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrOutOfPages) {
			t.Fatalf("panic %v is not ErrOutOfPages", r)
		}
	}()
	c.AppendFlatN(0, 3, k, v)
}

// TestAppendFlatNAllocFree pins the steady-state cost of the multi-token
// append: spans landing inside already-allocated page capacity copy without
// heap allocation (page opening is the only allocating event, priced by the
// prefill benchmarks).
func TestAppendFlatNAllocFree(t *testing.T) {
	shape := Shape{Layers: 2, KVHeads: 2, HeadDim: 4}
	const n = 4
	c := NewPagedKV(shape, 4096) // page big enough for the whole run
	k, v := fillSpan(shape, n, 3)
	for l := 0; l < shape.Layers; l++ { // open each layer's first page
		c.AppendFlatN(l, n, k, v)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for l := 0; l < shape.Layers; l++ {
			c.AppendFlatN(l, n, k, v)
		}
	}); allocs != 0 {
		t.Fatalf("AppendFlatN allocated %v per run", allocs)
	}
}

// TestAppendFlatBudgetPanics verifies a one-token append honours the page
// budget: an unreserved append past the budget panics with ErrOutOfPages.
func TestAppendFlatBudgetPanics(t *testing.T) {
	shape := Shape{Layers: 1, KVHeads: 1, HeadDim: 2}
	c := NewPagedKVQuant(shape, 1, 1, 0)
	kF, vF := fillToken(shape, 1)
	c.AppendFlatN(0, 1, kF, vF)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic past budget")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrOutOfPages) {
			t.Fatalf("panic %v is not ErrOutOfPages", r)
		}
	}()
	c.AppendFlatN(0, 1, kF, vF)
}

// TestAppendFlatLengthMismatch covers the flat-append contract panics.
func TestAppendFlatLengthMismatch(t *testing.T) {
	shape := Shape{Layers: 1, KVHeads: 2, HeadDim: 2}
	for _, c := range []Paged{NewFull(shape), NewPagedKV(shape, 4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on short flat append")
				}
			}()
			c.AppendFlatN(0, 1, make([]float32, 3), make([]float32, 4))
		}()
	}
}
