package kvcache

import (
	"testing"

	"rethinkkv/internal/rng"
)

func testShape() Shape { return Shape{Layers: 2, KVHeads: 2, HeadDim: 4} }

// randToken draws one token's flat head-major K/V.
func randToken(r *rng.RNG, s Shape) (k, v []float32) {
	k = make([]float32, s.KVHeads*s.HeadDim)
	v = make([]float32, s.KVHeads*s.HeadDim)
	for i := range k {
		k[i] = float32(r.NormFloat64())
		v[i] = float32(r.NormFloat64())
	}
	return k, v
}

func fillCache(t *testing.T, c Cache, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	s := c.Shape()
	for i := 0; i < n; i++ {
		for l := 0; l < s.Layers; l++ {
			k, v := randToken(r, s)
			c.AppendFlatN(l, 1, k, v)
		}
	}
}

func TestShapeValidate(t *testing.T) {
	if err := testShape().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Shape{Layers: 0, KVHeads: 1, HeadDim: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero layers")
	}
}

func TestFullRoundTrip(t *testing.T) {
	s := testShape()
	c := NewFull(s)
	r := rng.New(1)
	var wantK []float32
	for i := 0; i < 5; i++ {
		k, v := randToken(r, s)
		wantK = append(wantK, k[s.HeadDim:2*s.HeadDim]...)
		c.AppendFlatN(0, 1, k, v)
		k2, v2 := randToken(r, s)
		c.AppendFlatN(1, 1, k2, v2)
	}
	if c.TotalAppended() != 5 {
		t.Fatalf("appended = %d", c.TotalAppended())
	}
	keys, vals := c.Seq(0, 1)
	if len(keys) != 5*s.HeadDim || len(vals) != 5*s.HeadDim {
		t.Fatalf("seq lengths %d, %d", len(keys), len(vals))
	}
	for i := range keys {
		if keys[i] != wantK[i] {
			t.Fatalf("key mismatch at token %d dim %d", i/s.HeadDim, i%s.HeadDim)
		}
	}
	pos := c.Positions(0, 1)
	for i, p := range pos {
		if p != i {
			t.Fatalf("positions = %v", pos)
		}
	}
}

func TestFullMemoryBytes(t *testing.T) {
	s := testShape()
	c := NewFull(s)
	fillCache(t, c, 10, 2)
	// 10 tokens × 2 layers × 2 heads × 4 dims × 2 (K and V) × 2 bytes.
	want := int64(10 * 2 * 2 * 4 * 2 * 2)
	if got := c.MemoryBytes(); got != want {
		t.Fatalf("memory = %d, want %d", got, want)
	}
	if got := FP16Bytes(s, 10); got != want {
		t.Fatalf("FP16Bytes = %d, want %d", got, want)
	}
}

func TestFullAppendValidation(t *testing.T) {
	c := NewFull(testShape())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a one-head token in a two-head cache")
		}
	}()
	c.AppendFlatN(0, 1, []float32{1, 2, 3, 4}, []float32{1, 2, 3, 4})
}

func TestFullLayerRange(t *testing.T) {
	c := NewFull(testShape())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad layer")
		}
	}()
	k := make([]float32, 8)
	c.AppendFlatN(5, 1, k, k)
}

func TestFullFlatSeqEmpty(t *testing.T) {
	c := NewFull(testShape())
	for l := 0; l < testShape().Layers; l++ {
		if c.LayerPages(l) != 0 {
			t.Fatal("empty cache should hold no page to read rows from")
		}
	}
}

func TestPagedKVMatchesFull(t *testing.T) {
	s := testShape()
	full := NewFull(s)
	paged := NewPagedKV(s, 4) // 11 tokens → 2 full pages + partial
	r1, r2 := rng.New(5), rng.New(5)
	for i := 0; i < 11; i++ {
		for l := 0; l < s.Layers; l++ {
			k, v := randToken(r1, s)
			full.AppendFlatN(l, 1, k, v)
			k2, v2 := randToken(r2, s)
			paged.AppendFlatN(l, 1, k2, v2)
		}
	}
	if paged.TotalAppended() != 11 {
		t.Fatalf("appended = %d", paged.TotalAppended())
	}
	for l := 0; l < s.Layers; l++ {
		for h := 0; h < s.KVHeads; h++ {
			if paged.Len(l, h) != full.Len(l, h) {
				t.Fatalf("len mismatch at (%d,%d)", l, h)
			}
			fk, fv := full.Seq(l, h)
			pk, pv := paged.Seq(l, h)
			for i := range fk {
				if pk[i] != fk[i] || pv[i] != fv[i] {
					t.Fatalf("paged entry (%d,%d,%d,%d) mismatch", l, h, i/s.HeadDim, i%s.HeadDim)
				}
			}
			pos := paged.Positions(l, h)
			for i, p := range pos {
				if p != i {
					t.Fatalf("positions = %v", pos)
				}
			}
		}
	}
}

func TestPagedKVPages(t *testing.T) {
	s := testShape()
	c := NewPagedKV(s, 4)
	fillCache(t, c, 10, 7)
	if c.LayerPages(0) != 3 || c.Pages() != 3 { // 4 + 4 + 2
		t.Fatalf("pages = %d, %d", c.LayerPages(0), c.Pages())
	}
	_, fill0 := c.Rows(0, 0, 1, false)
	kp1, _ := c.Rows(0, 1, 1, false) // head 1's rows of page 1
	_, fill2 := c.Rows(0, 2, 1, true)
	if kp1.HeadStride != 4*s.HeadDim { // head-major
		t.Fatalf("head stride = %d", kp1.HeadStride)
	}
	if fill0 != 4 || fill2 != 2 {
		t.Fatalf("page fills = %d, %d", fill0, fill2)
	}
	// Page contents must match the sequential view.
	keys, _ := c.Seq(0, 1)
	if kp1.F32[1*s.HeadDim] != keys[5*s.HeadDim] { // page 1, token 1 == global token 5
		t.Fatal("page content does not match Seq")
	}
}

func TestPagedKVMemoryChargesWholePages(t *testing.T) {
	s := testShape()
	c := NewPagedKV(s, 8)
	fillCache(t, c, 1, 1) // 1 token still allocates a full 8-token page per layer
	perPage := int64(8) * int64(s.KVHeads*s.HeadDim) * 2 * BytesPerElemFP16
	if got, want := c.MemoryBytes(), int64(s.Layers)*perPage; got != want {
		t.Fatalf("memory = %d, want %d (fragmentation must be charged)", got, want)
	}
	if c.MemoryBytes() <= NewFullFrom(t, s, 1).MemoryBytes() {
		t.Fatal("partially-filled page must cost more than exact flat storage")
	}
}

// NewFullFrom builds a Full cache with n tokens for comparison tests.
func NewFullFrom(t *testing.T, s Shape, n int) *Full {
	t.Helper()
	c := NewFull(s)
	fillCache(t, c, n, 1)
	return c
}
