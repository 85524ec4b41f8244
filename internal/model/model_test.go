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
	r1 := m.Prefill([]int{1, 2, 3}, c1)
	r2 := m.Prefill([]int{1, 2, 3}, c2)
	for i := range r1.Logits {
		if r1.Logits[i] != r2.Logits[i] {
			t.Fatal("same seed, same prompt must give identical logits")
		}
	}
}

func TestForwardFiniteLogits(t *testing.T) {
	m := New(Tiny(), 1)
	cache := kvcache.NewFull(m.CacheShape())
	res := m.Prefill([]int{5, 10, 15, 20, 25}, cache)
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
	a := m.Prefill([]int{1, 2, 3, 4}, cA)
	b := m.Prefill([]int{4, 3, 2, 1}, cB)
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
	m.Prefill([]int{1, 2, 3, 4, 5, 6}, cache)
	if cache.TotalAppended() != 6 {
		t.Fatalf("appended = %d", cache.TotalAppended())
	}
	for l := 0; l < Tiny().Layers; l++ {
		if cache.Len(l, 0) != 6 {
			t.Fatalf("layer %d len = %d", l, cache.Len(l, 0))
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	m := New(Tiny(), 11)
	g1 := m.Generate([]int{1, 2, 3}, kvcache.NewFull(m.CacheShape()), GenerateOptions{MaxNewTokens: 8, EOS: -1})
	g2 := m.Generate([]int{1, 2, 3}, kvcache.NewFull(m.CacheShape()), GenerateOptions{MaxNewTokens: 8, EOS: -1})
	if len(g1.Tokens) != 8 || len(g2.Tokens) != 8 {
		t.Fatalf("lens = %d, %d", len(g1.Tokens), len(g2.Tokens))
	}
	for i := range g1.Tokens {
		if g1.Tokens[i] != g2.Tokens[i] {
			t.Fatal("greedy generation must be deterministic")
		}
	}
	if len(g1.Hiddens) != len(g1.Tokens) {
		t.Fatal("hiddens not aligned with tokens")
	}
}

func TestGenerateStopsAtEOS(t *testing.T) {
	m := New(Tiny(), 11)
	// Find the greedy first token and use it as EOS so generation must stop
	// after one step.
	cache := kvcache.NewFull(m.CacheShape())
	first := m.Generate([]int{1, 2, 3}, cache, GenerateOptions{MaxNewTokens: 1, EOS: -1}).Tokens[0]
	g := m.Generate([]int{1, 2, 3}, kvcache.NewFull(m.CacheShape()), GenerateOptions{MaxNewTokens: 50, EOS: first})
	if len(g.Tokens) != 1 || g.Tokens[0] != first {
		t.Fatalf("tokens = %v, want immediate EOS %d", g.Tokens, first)
	}
}

func TestGenerateTemperatureVaries(t *testing.T) {
	m := New(Tiny(), 11)
	a := m.Generate([]int{1, 2, 3}, kvcache.NewFull(m.CacheShape()), GenerateOptions{MaxNewTokens: 12, Temperature: 2.0, Seed: 1, EOS: -1})
	b := m.Generate([]int{1, 2, 3}, kvcache.NewFull(m.CacheShape()), GenerateOptions{MaxNewTokens: 12, Temperature: 2.0, Seed: 2, EOS: -1})
	same := len(a.Tokens) == len(b.Tokens)
	if same {
		for i := range a.Tokens {
			if a.Tokens[i] != b.Tokens[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different sampling seeds at high temperature should diverge")
	}
}

func TestGQAAndMHAGiveSameShapes(t *testing.T) {
	for _, cfg := range []Config{Tiny(), TinyMHA()} {
		m := New(cfg, 5)
		cache := kvcache.NewFull(m.CacheShape())
		res := m.Prefill([]int{9, 8, 7}, cache)
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
	m.Forward(Tiny().Vocab, 0, kvcache.NewFull(m.CacheShape()))
}

func TestForwardPanicsOnCacheShapeMismatch(t *testing.T) {
	m := New(Tiny(), 1)
	bad := kvcache.NewFull(kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward(1, 0, bad)
}

// legacyFull replicates the pre-flat per-token cache layout ([layer][token]
// slice-of-slices, not kvcache.Paged) so the equivalence tests can prove the
// flat layout changes memory organisation without changing a single output
// bit.
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

func (c *legacyFull) Append(layer int, k, v [][]float32) {
	flat := func(heads [][]float32) []float32 {
		out := make([]float32, 0, c.shape.KVHeads*c.shape.HeadDim)
		for _, h := range heads {
			out = append(out, h...)
		}
		return out
	}
	c.keys[layer] = append(c.keys[layer], flat(k))
	c.values[layer] = append(c.values[layer], flat(v))
	if layer == c.shape.Layers-1 {
		c.appended++
	}
}

func (c *legacyFull) Seq(layer, head int) (keys, values [][]float32) {
	d := c.shape.HeadDim
	off := head * d
	n := len(c.keys[layer])
	keys = make([][]float32, n)
	values = make([][]float32, n)
	for i := 0; i < n; i++ {
		keys[i] = c.keys[layer][i][off : off+d]
		values[i] = c.values[layer][i][off : off+d]
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

// TestFlatLayoutBitIdentical proves the flat cache (one page) and the paged
// cache (both through kvcache.Paged) produce bit-identical logits,
// hiddens, and greedy token streams to the legacy per-token layout (generic
// Seq path) across a full generation.
func TestFlatLayoutBitIdentical(t *testing.T) {
	for _, cfg := range []Config{Tiny(), TinyMHA()} {
		m := New(cfg, 23)
		prompt := []int{1, 2, 3, 4, 5, 6, 7}
		caches := map[string]kvcache.Cache{
			"legacy": newLegacyFull(m.CacheShape()),
			"flat":   kvcache.NewFull(m.CacheShape()),
			"paged":  kvcache.NewPagedKV(m.CacheShape(), 4),
		}
		results := map[string]GenerateResult{}
		for name, cache := range caches {
			results[name] = m.Generate(prompt, cache, GenerateOptions{MaxNewTokens: 24, EOS: -1})
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

// TestForwardIntoMatchesForward pins the aliasing contract: ForwardInto
// returns workspace-backed slices with the same values Forward copies out.
func TestForwardIntoMatchesForward(t *testing.T) {
	m := New(Tiny(), 3)
	c1 := kvcache.NewFull(m.CacheShape())
	c2 := kvcache.NewFull(m.CacheShape())
	ws := m.NewWorkspace()
	var got, want StepResult
	for i, tok := range []int{9, 8, 7, 6} {
		want = m.Forward(tok, i, c1)
		got = m.ForwardInto(ws, tok, i, c2)
	}
	for i := range want.Logits {
		if got.Logits[i] != want.Logits[i] {
			t.Fatalf("logit %d differs", i)
		}
	}
	for i := range want.Hidden {
		if got.Hidden[i] != want.Hidden[i] {
			t.Fatalf("hidden %d differs", i)
		}
	}
}

// TestForwardIntoZeroAllocs is the hot-path regression gate: steady-state
// decode through ForwardInto must not allocate. The only permitted source is
// the amortised growth of the cache's flat buffers, which averages well
// under one allocation per step.
func TestForwardIntoZeroAllocs(t *testing.T) {
	m := New(Tiny(), 1)
	ws := m.NewWorkspace()
	cache := kvcache.NewFull(m.CacheShape())
	prompt := make([]int, 128)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	m.PrefillInto(ws, prompt, cache)
	pos := cache.TotalAppended()
	avg := testing.AllocsPerRun(100, func() {
		m.ForwardInto(ws, pos%Tiny().Vocab, pos, cache)
		pos++
	})
	if avg >= 1 {
		t.Fatalf("ForwardInto allocates %.2f/step, want amortised < 1", avg)
	}
}

// TestForwardAllocsBounded documents the compatibility cost of Forward: the
// two output copies (logits + hidden) and nothing else.
func TestForwardAllocsBounded(t *testing.T) {
	m := New(Tiny(), 1)
	cache := kvcache.NewFull(m.CacheShape())
	m.Prefill([]int{1, 2, 3, 4}, cache)
	pos := cache.TotalAppended()
	avg := testing.AllocsPerRun(50, func() {
		m.Forward(pos%Tiny().Vocab, pos, cache)
		pos++
	})
	if avg > 3 {
		t.Fatalf("Forward allocates %.2f/step, want ≤ 3 (the documented output copies)", avg)
	}
}

// TestConcurrentWorkspaces proves independent workspaces may decode in
// parallel on one Model with results identical to sequential execution.
func TestConcurrentWorkspaces(t *testing.T) {
	m := New(Tiny(), 31)
	prompts := [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}
	sequential := make([][]float32, len(prompts))
	for i, p := range prompts {
		res := m.Prefill(p, kvcache.NewFull(m.CacheShape()))
		sequential[i] = res.Logits
	}
	var wg sync.WaitGroup
	parallel := make([][]float32, len(prompts))
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			ws := m.NewWorkspace()
			res := m.PrefillInto(ws, p, kvcache.NewFull(m.CacheShape()))
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
