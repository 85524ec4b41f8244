package model

import (
	"fmt"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// sparseCacheMaker returns a constructor for a summaries-enabled paged cache
// at the given code width (0 = fp32).
func sparseCacheMaker(m *Model, pageTokens, bits int) func() *kvcache.PagedKV {
	return func() *kvcache.PagedKV {
		c := kvcache.NewPagedKVQuant(m.CacheShape(), pageTokens, 0, bits)
		c.EnableKeySummaries()
		return c
	}
}

// TestSparseDecodeFullKBitIdentical pins the delegation contract: with topK
// at least the resident page count, sparse decode must be bit-identical to
// dense — tokens and hidden states — for fp32 and both quantized widths.
// (The sparse branch declines and the dense walk runs; this test guards the
// boundary condition so np == topK can never drift onto a different path.)
func TestSparseDecodeFullKBitIdentical(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			prompt := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
			dense := New(Tiny(), 23)
			mkD := sparseCacheMaker(dense, 4, bits)
			ref := dense.Generate(prompt, mkD(), GenerateOptions{MaxNewTokens: 24, EOS: -1})

			sparse := New(Tiny(), 23)
			sparse.SetSparseTopK(1 << 20) // always >= pages
			mkS := sparseCacheMaker(sparse, 4, bits)
			got := sparse.Generate(prompt, mkS(), GenerateOptions{MaxNewTokens: 24, EOS: -1})

			if len(got.Tokens) != len(ref.Tokens) {
				t.Fatalf("token count %d != %d", len(got.Tokens), len(ref.Tokens))
			}
			for i := range ref.Tokens {
				if got.Tokens[i] != ref.Tokens[i] {
					t.Fatalf("token %d = %d, want %d", i, got.Tokens[i], ref.Tokens[i])
				}
			}
			for i := range ref.Hiddens {
				for j := range ref.Hiddens[i] {
					if got.Hiddens[i][j] != ref.Hiddens[i][j] {
						t.Fatalf("hidden (%d,%d) not bit-identical", i, j)
					}
				}
			}
		})
	}
}

// restrictedSeq exposes a prebuilt token subset through the generic Cache
// surface only (no fast-path interfaces), with appends swallowed: the step
// being replayed already contributed its token to the restriction.
type restrictedSeq struct{ inner *kvcache.Full }

func (c *restrictedSeq) Shape() kvcache.Shape                    { return c.inner.Shape() }
func (c *restrictedSeq) Append(layer int, k, v [][]float32)      {}
func (c *restrictedSeq) Seq(l, h int) ([][]float32, [][]float32) { return c.inner.Seq(l, h) }
func (c *restrictedSeq) Positions(l, h int) []int                { return c.inner.Positions(l, h) }
func (c *restrictedSeq) Len(l, h int) int                        { return c.inner.Len(l, h) }
func (c *restrictedSeq) TotalAppended() int                      { return c.inner.TotalAppended() }
func (c *restrictedSeq) MemoryBytes() int64                      { return c.inner.MemoryBytes() }

// TestSparseDecodeRestrictionIdentity proves the sparse branch's arithmetic
// is exactly "dense attention restricted to the selected pages": a decode
// step at topK must be bit-identical to a dense step attending a cache that
// holds only the selected pages' stored (dequantized, for quant widths)
// K/V. The selection is read back from the workspace scratch the branch
// filled, so the test pins the materialized score/softmax/accumulate walk
// itself, not just the selection policy. A 1-layer, 1-head shape keeps the
// step to a single selection so one restricted cache describes it fully.
// The topK = 0 rows are the selector-off case of the same walk: every page
// (the last one part-filled) against the generic Seq arm over all of them.
func TestSparseDecodeRestrictionIdentity(t *testing.T) {
	cfg := Config{Name: "sparse-1l", Layers: 1, Heads: 1, KVHeads: 1, HeadDim: 16,
		FFNDim: 64, Vocab: 128, MaxSeq: 4096}
	const pageTokens, promptLen = 4, 33
	for _, bits := range []int{0, 8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			for _, topK := range []int{3, 0} {
				m := New(cfg, 7)
				ws := m.NewWorkspace()
				prompt := make([]int, promptLen)
				for i := range prompt {
					prompt[i] = (i*13 + 5) % cfg.Vocab
				}
				cache := sparseCacheMaker(m, pageTokens, bits)()
				m.PrefillInto(ws, prompt, cache)
				ws.TakeSparseStats()

				m.SetSparseTopK(topK)
				sr := m.ForwardInto(ws, 2, promptLen, cache)
				m.SetSparseTopK(0)
				got := append([]float32(nil), sr.Logits...)
				nSel, _ := ws.TakeSparseStats()
				if nSel != int64(topK) {
					t.Fatalf("selected %d pages, want %d", nSel, topK)
				}
				sel := append([]int32(nil), ws.pageSel[:nSel]...)
				if topK == 0 {
					for p := 0; p < cache.Pages(); p++ {
						sel = append(sel, int32(p))
					}
				}

				// Rebuild the selected token set from the cache's own stored
				// values — including the token the step itself appended, which
				// lives in the (always selected) tail page.
				keys, vals := cache.Seq(0, 0)
				restricted := kvcache.NewFull(m.CacheShape())
				for _, p := range sel {
					lo, hi := int(p)*pageTokens, (int(p)+1)*pageTokens
					if hi > len(keys) {
						hi = len(keys)
					}
					for i := lo; i < hi; i++ {
						restricted.Append(0, [][]float32{keys[i]}, [][]float32{vals[i]})
					}
				}
				sr2 := m.ForwardInto(ws, 2, promptLen, &restrictedSeq{inner: restricted})
				for j := range got {
					if got[j] != sr2.Logits[j] {
						t.Fatalf("logit %d: sparse %v != restricted dense %v", j, got[j], sr2.Logits[j])
					}
				}
			}
		})
	}
}

// TestSparseDecodeCounters checks the pages-selected / pages-resident
// accounting: one decode step over a known page count must record exactly
// layers*heads attentions of topK selected out of np resident.
func TestSparseDecodeCounters(t *testing.T) {
	cfg := Tiny()
	const pageTokens, topK = 4, 2
	m := New(cfg, 5)
	ws := m.NewWorkspace()
	prompt := make([]int, 20) // exactly 5 pages
	for i := range prompt {
		prompt[i] = i % cfg.Vocab
	}
	cache := sparseCacheMaker(m, pageTokens, 0)()
	m.PrefillInto(ws, prompt, cache)
	ws.TakeSparseStats() // prefill ran dense; drain whatever landed
	m.SetSparseTopK(topK)
	m.ForwardInto(ws, 1, 20, cache)
	m.SetSparseTopK(0)
	np := cache.Pages() // pages resident when attention ran (after append)
	sel, tot := ws.TakeSparseStats()
	att := int64(cfg.Layers * cfg.Heads)
	if tot != att*int64(np) || sel != att*int64(topK) {
		t.Fatalf("counters (sel=%d, tot=%d), want (%d, %d)", sel, tot, att*int64(topK), att*int64(np))
	}
	if s, tt := ws.TakeSparseStats(); s != 0 || tt != 0 {
		t.Fatalf("TakeSparseStats did not reset: (%d, %d)", s, tt)
	}
}

// TestSparseRecallProbe exercises the attention-mass recall probe: recall is
// a valid mean in (0, 1], increases (weakly) with topK on average, and is
// near 1 when only one page is dropped.
func TestSparseRecallProbe(t *testing.T) {
	cfg := Tiny()
	const pageTokens = 4
	prompt := make([]int, 40) // 10 pages
	for i := range prompt {
		prompt[i] = (i*7 + 3) % cfg.Vocab
	}
	recallAt := func(topK int) float64 {
		m := New(cfg, 9)
		ws := m.NewWorkspace()
		cache := sparseCacheMaker(m, pageTokens, 0)()
		m.PrefillInto(ws, prompt, cache)
		m.SetSparseTopK(topK)
		ws.SetRecallProbe(true)
		pos := len(prompt)
		tok := 1
		for s := 0; s < 4; s++ {
			sr := m.ForwardInto(ws, tok, pos, cache)
			tok = tensor.Argmax(sr.Logits)
			pos++
		}
		ws.SetRecallProbe(false)
		mass, cnt := ws.TakeRecall()
		if cnt == 0 {
			t.Fatalf("topK=%d: probe recorded nothing", topK)
		}
		return mass / float64(cnt)
	}
	lo, hi := recallAt(2), recallAt(9)
	if lo <= 0 || lo > 1 || hi <= 0 || hi > 1 {
		t.Fatalf("recall out of range: topK=2 -> %v, topK=9 -> %v", lo, hi)
	}
	if hi < lo {
		t.Fatalf("recall not improving with budget: topK=2 -> %v, topK=9 -> %v", lo, hi)
	}
	if hi < 0.7 {
		t.Fatalf("dropping one page of ten lost %.0f%% of attention mass", 100*(1-hi))
	}
}

// TestSparseDecodeAllocs pins the 0-alloc contract for sparse decode (probe
// off): summary scoring, selection, and the restricted attention walk all
// live in workspace scratch. Page opening costs the same amortised <1
// alloc/step as dense paged decode. This name is pinned in make ci.
func TestSparseDecodeAllocs(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			m := New(Tiny(), 1)
			ws := m.NewWorkspace()
			cache := sparseCacheMaker(m, 16, bits)()
			prompt := make([]int, 256)
			for i := range prompt {
				prompt[i] = i % Tiny().Vocab
			}
			m.PrefillInto(ws, prompt, cache)
			m.SetSparseTopK(4)
			defer m.SetSparseTopK(0)
			pos := cache.TotalAppended()
			avg := testing.AllocsPerRun(100, func() {
				m.ForwardInto(ws, pos%Tiny().Vocab, pos, cache)
				pos++
			})
			if avg >= 1 {
				t.Fatalf("bits=%d: sparse ForwardInto allocates %.2f/step, want amortised < 1", bits, avg)
			}
		})
	}
}

// BenchmarkDecodeSteadySparse is BenchmarkDecodeSteadyPaged at a long
// context (2048-2304 tokens, 128+ pages) with sparsity at several budgets;
// "full" is the dense walk over the same summaries-enabled cache, so the
// delta is exactly what page selection buys at this context length.
func BenchmarkDecodeSteadySparse(b *testing.B) {
	const ctx, pageTokens = 2048, 16
	run := func(b *testing.B, bits, topK int) {
		m := New(Tiny(), 1)
		m.SetSparseTopK(topK)
		ws := m.NewWorkspace()
		prompt := make([]int, ctx)
		for i := range prompt {
			prompt[i] = i % Tiny().Vocab
		}
		mk := sparseCacheMaker(m, pageTokens, bits)
		cache := mk()
		m.PrefillInto(ws, prompt, cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cache.TotalAppended() >= ctx+256 {
				b.StopTimer()
				cache = mk()
				m.PrefillInto(ws, prompt, cache)
				b.StartTimer()
			}
			m.ForwardInto(ws, i%Tiny().Vocab, cache.TotalAppended(), cache)
		}
	}
	for _, bits := range []int{0, 8} {
		name := "fp32"
		if bits != 0 {
			name = fmt.Sprintf("int%d", bits)
		}
		b.Run(name+"/full", func(b *testing.B) { run(b, bits, 0) })
		for _, topK := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/k=%d", name, topK), func(b *testing.B) { run(b, bits, topK) })
		}
	}
}
