package compress

import (
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/sparse"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fp16", "kivi-2", "kivi-4", "gear-2", "gear-4",
		"h2o-256", "h2o-512", "stream-256", "stream-512",
		"snapkv-512", "tova-512",
		"scissorhands-512", "keyformer-512", "pyramidkv-512", "adakv-512",
		"qjl", "intactkv-4", "mikv",
	}
	for _, n := range want {
		if _, err := Get(n); err != nil {
			t.Fatalf("missing method %q: %v", n, err)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d methods, want %d: %v", len(Names()), len(want), Names())
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGet("nope")
}

func TestPaperSet(t *testing.T) {
	set := PaperSet()
	if len(set) != 5 {
		t.Fatalf("paper set size = %d", len(set))
	}
	if set[0].Cost.Kind != FP16 {
		t.Fatal("first paper method must be the FP16 baseline")
	}
	for _, m := range set[1:] {
		if m.Cost.Kind == FP16 {
			t.Fatalf("%s should not be baseline", m.Name)
		}
	}
}

func TestCachesConstructible(t *testing.T) {
	shape := kvcache.Shape{Layers: 2, KVHeads: 2, HeadDim: 8}
	for _, name := range Names() {
		m := MustGet(name)
		c := m.NewCache(shape)
		if c == nil {
			t.Fatalf("%s: nil cache", name)
		}
		if c.Shape() != shape {
			t.Fatalf("%s: wrong shape", name)
		}
		// Sparse caches must implement the prefill hook when score-driven.
		if m.Cost.Kind == Sparse {
			if _, ok := c.(Prefiller); !ok {
				t.Fatalf("%s: sparse cache must implement Prefiller", name)
			}
			if _, ok := c.(*sparse.Cache); !ok {
				t.Fatalf("%s: expected sparse.Cache", name)
			}
		}
	}
}

func TestEffectiveKVLen(t *testing.T) {
	p := CostProfile{Kind: Sparse, Budget: 512}
	if got := p.EffectiveKVLen(2048); got != 512 {
		t.Fatalf("sparse eff len = %d", got)
	}
	if got := p.EffectiveKVLen(100); got != 100 {
		t.Fatalf("under-budget eff len = %d", got)
	}
	q := CostProfile{Kind: Quant, Bits: 4}
	if got := q.EffectiveKVLen(2048); got != 2048 {
		t.Fatalf("quant eff len = %d", got)
	}
}

func TestKVBytesOrdering(t *testing.T) {
	// At long sequence length: Stream-512 < KIVI-2 < KIVI-4 < GEAR-4 < FP16.
	const layers, kvDim, seq = 32, 4096, 4096
	per := func(name string) float64 {
		return MustGet(name).Cost.KVBytesPerTokenAvg(layers, kvDim, seq)
	}
	fp := per("fp16")
	k2, k4, g4, st := per("kivi-2"), per("kivi-4"), per("gear-4"), per("stream-512")
	if !(st < k2 && k2 < k4 && k4 < g4 && g4 < fp) {
		t.Fatalf("byte ordering violated: stream=%v k2=%v k4=%v g4=%v fp=%v", st, k2, k4, g4, fp)
	}
}

func TestCompressionRatioPlausible(t *testing.T) {
	const layers, kvDim = 32, 4096
	// KIVI-4 at long contexts should approach ~16/4.x ≈ 3-4x; at short
	// contexts the residual window keeps the ratio near 1.
	k4 := MustGet("kivi-4").Cost
	long := k4.CompressionRatio(layers, kvDim, 8192)
	short := k4.CompressionRatio(layers, kvDim, 128)
	if long < 2.5 || long > 4.5 {
		t.Fatalf("kivi-4 long ratio %v implausible", long)
	}
	if short > 1.2 {
		t.Fatalf("kivi-4 short ratio %v: residual window not modelled", short)
	}
	// Sparse ratio grows with sequence length: 8192/512 = 16x.
	st := MustGet("stream-512").Cost
	if r := st.CompressionRatio(layers, kvDim, 8192); r < 14 || r > 17 {
		t.Fatalf("stream-512 ratio %v, want ≈16", r)
	}
}

func TestKindString(t *testing.T) {
	if FP16.String() != "fp16" || Quant.String() != "quant" || Sparse.String() != "sparse" {
		t.Fatal("kind names wrong")
	}
}

func TestIrregularAccessBounds(t *testing.T) {
	for _, n := range Names() {
		m := MustGet(n)
		if m.Cost.IrregularAccess <= 0 || m.Cost.IrregularAccess > 1 {
			t.Fatalf("%s: irregular access %v out of (0,1]", n, m.Cost.IrregularAccess)
		}
	}
	// Structured methods must not be penalised more than score-based ones.
	if MustGet("stream-512").Cost.IrregularAccess < MustGet("gear-4").Cost.IrregularAccess {
		t.Fatal("stream should have better access regularity than gear")
	}
}

func TestZeroSeqLen(t *testing.T) {
	p := MustGet("kivi-4").Cost
	if b := p.KVBytesPerTokenAvg(32, 4096, 0); b != 0 {
		t.Fatalf("zero-length bytes = %v", b)
	}
	if r := p.CompressionRatio(32, 4096, 0); r != 1 {
		t.Fatalf("zero-length ratio = %v", r)
	}
}
