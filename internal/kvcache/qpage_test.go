package kvcache

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func qShape() Shape { return Shape{Layers: 2, KVHeads: 2, HeadDim: 4} }

// qFill appends n tokens of deterministic pseudo-random K/V to every layer
// via AppendFlat, returning the flat token-major spans it stored.
func qFill(c *PagedKV, n int, seed int64) (k, v []float32) {
	shape := c.Shape()
	stride := shape.KVHeads * shape.HeadDim
	r := rand.New(rand.NewSource(seed))
	k = make([]float32, n*stride)
	v = make([]float32, n*stride)
	for i := range k {
		k[i] = float32(r.NormFloat64())
		v[i] = float32(r.NormFloat64())
	}
	for t := 0; t < n; t++ {
		for l := 0; l < shape.Layers; l++ {
			c.AppendFlatN(l, 1, k[t*stride:(t+1)*stride], v[t*stride:(t+1)*stride])
		}
	}
	return k, v
}

// quantPagesEqual compares one layer's stored pages: token counts, K and V
// codes, and their float16 parameters.
func quantPagesEqual(a, b *PagedKV, l int) bool {
	if a.LayerPages(l) != b.LayerPages(l) {
		return false
	}
	for p := 0; p < a.LayerPages(l); p++ {
		for _, vals := range []bool{false, true} {
			ar, an := a.Rows(l, p, 0, vals)
			br, bn := b.Rows(l, p, 0, vals)
			if an != bn || string(ar.Codes) != string(br.Codes) || !slices.Equal(ar.Params, br.Params) {
				return false
			}
		}
	}
	return true
}

// AppendFlatN must split a multi-token span across page boundaries and
// quantize to exactly the pages n successive AppendFlat calls produce.
func TestQuantAppendFlatNMatchesPerToken(t *testing.T) {
	for _, bits := range []int{8, 4} {
		const pageTokens, n = 4, 11 // 2 full pages + a 3-token tail
		one := NewPagedKVQuant(qShape(), pageTokens, 0, bits)
		k, v := qFill(one, n, 42)

		batch := NewPagedKVQuant(qShape(), pageTokens, 0, bits)
		for l := 0; l < qShape().Layers; l++ {
			batch.AppendFlatN(l, n, k, v)
		}
		if batch.TotalAppended() != n || one.TotalAppended() != n {
			t.Fatalf("bits=%d: appended %d/%d, want %d", bits, batch.TotalAppended(), one.TotalAppended(), n)
		}
		for l := 0; l < qShape().Layers; l++ {
			if one.LayerPages(l) != 3 {
				t.Fatalf("bits=%d layer %d: %d pages, want 3", bits, l, one.LayerPages(l))
			}
			if !quantPagesEqual(one, batch, l) {
				t.Fatalf("bits=%d layer %d: AppendFlatN pages differ from per-token appends", bits, l)
			}
		}
	}
}

// ClonePrefix over a quantized cache must share full pages by reference —
// without re-quantizing them — and deep-copy only the partial tail.
func TestQuantClonePrefixSharesFullPages(t *testing.T) {
	const pageTokens = 4
	c := NewPagedKVQuant(qShape(), pageTokens, 0, 8)
	qFill(c, 6, 9) // 1 full page + 2-token tail
	origPage0, _ := c.Rows(0, 0, 0, false)
	fullKCodes := append([]uint8(nil), origPage0.Codes...)

	n := c.ClonePrefix()
	if got := sharedPages(n, c); got != 1 {
		t.Fatalf("shared pages = %d, want 1", got)
	}
	cp0, _ := c.Rows(0, 0, 0, false)
	np0, _ := n.Rows(0, 0, 0, false)
	if &cp0.Codes[0] != &np0.Codes[0] || &cp0.Params[0] != &np0.Params[0] {
		t.Fatalf("full quantized page was copied, want shared backing storage")
	}
	cp1, _ := c.Rows(0, 1, 0, false)
	np1, _ := n.Rows(0, 1, 0, false)
	if &cp1.Codes[0] == &np1.Codes[0] {
		t.Fatalf("partial tail page shares storage, want deep copy")
	}

	// Divergent appends: the clone and original grow independently and the
	// shared full page's codes never change (no re-quantization).
	stride := qShape().KVHeads * qShape().HeadDim
	tok := make([]float32, stride)
	for i := range tok {
		tok[i] = float32(i) * 0.5
	}
	for l := 0; l < qShape().Layers; l++ {
		n.AppendFlatN(l, 1, tok, tok)
	}
	if c.TotalAppended() != 6 || n.TotalAppended() != 7 {
		t.Fatalf("appended = %d/%d, want 6/7", c.TotalAppended(), n.TotalAppended())
	}
	if got := origPage0.Codes; len(got) != len(fullKCodes) {
		t.Fatalf("shared page code length changed")
	} else {
		for i := range got {
			if got[i] != fullKCodes[i] {
				t.Fatalf("shared full page was re-quantized at code %d", i)
			}
		}
	}
	if _, tail := c.Rows(0, 1, 0, false); tail != 2 {
		t.Fatalf("original tail grew with the clone")
	}
}

// Seq must return dequantized views whose error is bounded by half a code
// step, and the quantized cache must report Len consistently.
func TestQuantSeqDequantizedWithinStep(t *testing.T) {
	for _, bits := range []int{8, 4} {
		c := NewPagedKVQuant(qShape(), 4, 0, bits)
		k, _ := qFill(c, 10, 5)
		stride := qShape().KVHeads * qShape().HeadDim
		d := qShape().HeadDim
		for head := 0; head < qShape().KVHeads; head++ {
			keys, vals := c.Seq(0, head)
			if len(keys) != 10 || len(vals) != 10 || c.Len(0, head) != 10 {
				t.Fatalf("bits=%d: Seq returned %d/%d entries, Len %d, want 10", bits, len(keys), len(vals), c.Len(0, head))
			}
			for i := range keys {
				orig := k[i*stride+head*d : i*stride+(head+1)*d]
				lo, hi := orig[0], orig[0]
				for _, x := range orig {
					lo = float32(math.Min(float64(lo), float64(x)))
					hi = float32(math.Max(float64(hi), float64(x)))
				}
				step := float64(hi-lo) / float64(int(1)<<bits-1)
				tol := step*0.5 + float64(hi-lo)*1.0/1024 + 1e-6 // half a code + fp16 param rounding
				for j := range keys[i] {
					if err := math.Abs(float64(keys[i][j] - orig[j])); err > tol {
						t.Fatalf("bits=%d token %d elem %d: dequant error %g exceeds %g", bits, i, j, err, tol)
					}
				}
			}
		}
	}
}

// The quantized backend keeps the page budget contract: Reserve fails with
// ErrOutOfPages past the budget and unreserved appends panic.
func TestQuantBudgetContract(t *testing.T) {
	c := NewPagedKVQuant(qShape(), 4, 2, 8)
	qFill(c, 8, 1) // exactly 2 pages
	if err := c.Reserve(1); !errors.Is(err, ErrOutOfPages) {
		t.Fatalf("Reserve past budget: got %v, want ErrOutOfPages", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("unreserved append past budget did not panic")
		}
	}()
	stride := qShape().KVHeads * qShape().HeadDim
	c.AppendFlatN(0, 1, make([]float32, stride), make([]float32, stride))
}

// The byte-budget scaling: fp32 unchanged, int8/int4 hold strictly more
// pages per byte (≥2× at this shape), and quantized MemoryBytes undercuts
// the fp32 cache's FP16-equivalent footprint.
func TestQuantPageAccounting(t *testing.T) {
	shape, pt := qShape(), 16
	if got := ScaledPageBudget(24, shape, pt, 0); got != 24 {
		t.Fatalf("bits=0 budget scaled to %d, want 24", got)
	}
	b8 := ScaledPageBudget(24, shape, pt, 8)
	b4 := ScaledPageBudget(24, shape, pt, 4)
	if b8 < 48 || b4 <= b8 {
		t.Fatalf("scaled budgets int8=%d int4=%d, want ≥48 and int4 > int8", b8, b4)
	}
	fp := NewPagedKV(shape, pt)
	q := NewPagedKVQuant(shape, pt, 0, 4)
	qFill(fp, 40, 2)
	qFill(q, 40, 2)
	if q.MemoryBytes() >= fp.MemoryBytes() {
		t.Fatalf("quantized MemoryBytes %d not below fp32 cache's %d", q.MemoryBytes(), fp.MemoryBytes())
	}
}
