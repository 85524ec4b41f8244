package model

import (
	"math"
	"sync"
	"testing"

	"rethinkkv/internal/kvcache"
)

func TestConfigValidate(t *testing.T) {
	if err := Tiny().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Tiny()
	bad.KVHeads = 3 // 4 % 3 != 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected GQA divisibility error")
	}
	odd := Tiny()
	odd.HeadDim = 15
	if err := odd.Validate(); err == nil {
		t.Fatal("expected even head dim error")
	}
}

func TestFullSizeDescriptors(t *testing.T) {
	cases := []struct {
		cfg         Config
		wantHidden  int
		wantParamsB float64 // rough parameter count in billions
	}{
		{LLaMA2_7B, 4096, 6.7},
		{LLaMA2_13B, 5120, 13.0},
		{LLaMA2_70B, 8192, 69},
		{Mistral7B, 4096, 7.2},
		{LLaMA31_8B, 4096, 8.0},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.cfg.Name, err)
		}
		if c.cfg.Hidden() != c.wantHidden {
			t.Fatalf("%s hidden = %d", c.cfg.Name, c.cfg.Hidden())
		}
		gotB := float64(c.cfg.ParamCount()) / 1e9
		if gotB < c.wantParamsB*0.8 || gotB > c.wantParamsB*1.25 {
			t.Fatalf("%s params = %.2fB, want ≈%.1fB", c.cfg.Name, gotB, c.wantParamsB)
		}
	}
}

func TestByName(t *testing.T) {
	if c, ok := ByName("mistral-7b"); !ok || c.KVHeads != 8 {
		t.Fatalf("ByName(mistral-7b) = %+v, %v", c, ok)
	}
	if _, ok := ByName("gpt-42"); ok {
		t.Fatal("unknown name should miss")
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := New(Tiny(), 7)
	c1 := kvcache.NewFull(m.CacheShape())
	c2 := kvcache.NewFull(m.CacheShape())
	r1 := newSolo(m).prefill([]int{1, 2, 3}, c1)
	r2 := newSolo(m).prefill([]int{1, 2, 3}, c2)
	for i := range r1.Logits {
		if r1.Logits[i] != r2.Logits[i] {
			t.Fatal("same seed, same prompt must give identical logits")
		}
	}
}

func TestForwardFiniteLogits(t *testing.T) {
	m := New(Tiny(), 1)
	cache := kvcache.NewFull(m.CacheShape())
	res := newSolo(m).prefill([]int{5, 10, 15, 20, 25}, cache)
	if len(res.Logits) != Tiny().Vocab {
		t.Fatalf("logits len = %d", len(res.Logits))
	}
	for i, v := range res.Logits {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("logit %d not finite: %v", i, v)
		}
	}
}

func TestPromptOrderMatters(t *testing.T) {
	m := New(Tiny(), 3)
	cA := kvcache.NewFull(m.CacheShape())
	cB := kvcache.NewFull(m.CacheShape())
	a := newSolo(m).prefill([]int{1, 2, 3, 4}, cA)
	b := newSolo(m).prefill([]int{4, 3, 2, 1}, cB)
	same := true
	for i := range a.Logits {
		if a.Logits[i] != b.Logits[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("permuted prompt should change output (position encoding)")
	}
}

func TestCacheGrowsOncePerTokenPerLayer(t *testing.T) {
	m := New(Tiny(), 1)
	cache := kvcache.NewFull(m.CacheShape())
	newSolo(m).prefill([]int{1, 2, 3, 4, 5, 6}, cache)
	if cache.TotalAppended() != 6 {
		t.Fatalf("appended = %d", cache.TotalAppended())
	}
	for l := 0; l < Tiny().Layers; l++ {
		if cache.Len(l, 0) != 6 {
			t.Fatalf("layer %d len = %d", l, cache.Len(l, 0))
		}
	}
}

func TestGQAAndMHAGiveSameShapes(t *testing.T) {
	for _, cfg := range []Config{Tiny(), TinyMHA()} {
		m := New(cfg, 5)
		cache := kvcache.NewFull(m.CacheShape())
		res := newSolo(m).prefill([]int{9, 8, 7}, cache)
		if len(res.Logits) != cfg.Vocab || len(res.Hidden) != cfg.Hidden() {
			t.Fatalf("%s: bad output shapes", cfg.Name)
		}
	}
}

func TestForwardPanicsOnBadToken(t *testing.T) {
	m := New(Tiny(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSolo(m).step(Tiny().Vocab, 0, kvcache.NewFull(m.CacheShape()))
}

func TestForwardPanicsOnCacheShapeMismatch(t *testing.T) {
	m := New(Tiny(), 1)
	bad := kvcache.NewFull(kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSolo(m).step(1, 0, bad)
}

// legacyFull replicates the pre-flat per-token cache layout ([layer][token]
// slice-of-slices, not kvcache.Paged: the walk reads its gathered Seq) so the
// equivalence tests can prove the page layout changes memory organisation
// without changing a single output bit.
type legacyFull struct {
	shape    kvcache.Shape
	keys     [][][]float32 // [layer][token][KVHeads*HeadDim]
	values   [][][]float32
	appended int
}

func newLegacyFull(shape kvcache.Shape) *legacyFull {
	return &legacyFull{
		shape:  shape,
		keys:   make([][][]float32, shape.Layers),
		values: make([][][]float32, shape.Layers),
	}
}

func (c *legacyFull) Shape() kvcache.Shape { return c.shape }

func (c *legacyFull) AppendFlatN(layer, n int, k, v []float32) {
	stride := c.shape.KVHeads * c.shape.HeadDim
	for t := 0; t < n; t++ {
		c.keys[layer] = append(c.keys[layer], append([]float32(nil), k[t*stride:(t+1)*stride]...))
		c.values[layer] = append(c.values[layer], append([]float32(nil), v[t*stride:(t+1)*stride]...))
	}
	if layer == c.shape.Layers-1 {
		c.appended += n
	}
}

func (c *legacyFull) Seq(layer, head int) (keys, values []float32) {
	d := c.shape.HeadDim
	off := head * d
	for i := range c.keys[layer] {
		keys = append(keys, c.keys[layer][i][off:off+d]...)
		values = append(values, c.values[layer][i][off:off+d]...)
	}
	return keys, values
}

// seqRows returns one head's Seq split into per-token row views.
func seqRows(c kvcache.Cache, layer, head int) (keys, values [][]float32) {
	k, v := c.Seq(layer, head)
	d := c.Shape().HeadDim
	for i := 0; i < len(k); i += d {
		keys, values = append(keys, k[i:i+d]), append(values, v[i:i+d])
	}
	return keys, values
}

func (c *legacyFull) Positions(layer, head int) []int {
	ps := make([]int, len(c.keys[layer]))
	for i := range ps {
		ps[i] = i
	}
	return ps
}

func (c *legacyFull) Len(layer, head int) int { return len(c.keys[layer]) }
func (c *legacyFull) TotalAppended() int      { return c.appended }
func (c *legacyFull) MemoryBytes() int64 {
	var elems int64
	for l := range c.keys {
		elems += int64(len(c.keys[l])) * int64(c.shape.KVHeads*c.shape.HeadDim) * 2
	}
	return elems * kvcache.BytesPerElemFP16
}

// TestFlatLayoutBitIdentical proves Full (sealing 16-token pages) and a
// 4-token paged cache (both through kvcache.Paged) produce bit-identical logits,
// hiddens, and greedy token streams to the legacy per-token layout (read as
// one Seq page per KV head) across a full generation.
func TestFlatLayoutBitIdentical(t *testing.T) {
	for _, cfg := range []Config{Tiny(), TinyMHA()} {
		m := New(cfg, 23)
		prompt := []int{1, 2, 3, 4, 5, 6, 7}
		caches := map[string]kvcache.Cache{
			"legacy": newLegacyFull(m.CacheShape()),
			"flat":   kvcache.NewFull(m.CacheShape()),
			"paged":  kvcache.NewPagedKV(m.CacheShape(), 4),
		}
		results := map[string]generated{}
		for name, cache := range caches {
			results[name] = generate(m, prompt, cache, 24)
		}
		ref := results["legacy"]
		for _, name := range []string{"flat", "paged"} {
			got := results[name]
			if len(got.Tokens) != len(ref.Tokens) {
				t.Fatalf("%s/%s: token count %d != %d", cfg.Name, name, len(got.Tokens), len(ref.Tokens))
			}
			for i := range ref.Tokens {
				if got.Tokens[i] != ref.Tokens[i] {
					t.Fatalf("%s/%s: token %d = %d, want %d", cfg.Name, name, i, got.Tokens[i], ref.Tokens[i])
				}
			}
			for i := range ref.Hiddens {
				for j := range ref.Hiddens[i] {
					if got.Hiddens[i][j] != ref.Hiddens[i][j] {
						t.Fatalf("%s/%s: hidden (%d,%d) not bit-identical", cfg.Name, name, i, j)
					}
				}
			}
		}
	}
}

// TestForwardOneLaneZeroAllocs is the hot-path regression gate: steady-state
// decode of a stream stepped alone, at one lane of the fused pass, must not
// allocate. The only permitted source is the cache opening a page (each layer
// every 16 tokens), which averages well under one allocation per step.
func TestForwardOneLaneZeroAllocs(t *testing.T) {
	m := New(Tiny(), 1)
	ws := newSolo(m)
	cache := kvcache.NewFull(m.CacheShape())
	prompt := make([]int, 128)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	ws.prefill(prompt, cache)
	pos := cache.TotalAppended()
	avg := testing.AllocsPerRun(100, func() {
		ws.step(pos%Tiny().Vocab, pos, cache)
		pos++
	})
	if avg >= 1 {
		t.Fatalf("one-lane step allocates %.2f/step, want amortised < 1", avg)
	}
}

// TestConcurrentWorkspaces proves independent workspaces may decode in
// parallel on one Model with results identical to sequential execution.
func TestConcurrentWorkspaces(t *testing.T) {
	m := New(Tiny(), 31)
	prompts := [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}
	sequential := make([][]float32, len(prompts))
	for i, p := range prompts {
		res := newSolo(m).prefill(p, kvcache.NewFull(m.CacheShape()))
		sequential[i] = res.Logits
	}
	var wg sync.WaitGroup
	parallel := make([][]float32, len(prompts))
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			ws := newSolo(m)
			res := ws.prefill(p, kvcache.NewFull(m.CacheShape()))
			parallel[i] = append([]float32(nil), res.Logits...)
		}(i, p)
	}
	wg.Wait()
	for i := range prompts {
		for j := range sequential[i] {
			if parallel[i][j] != sequential[i][j] {
				t.Fatalf("prompt %d logit %d differs under concurrency", i, j)
			}
		}
	}
}
