package model

import (
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// seqOnlyQuant hides a quantized paged cache's pages (kvcache.Paged), so the
// walk reads each KV head's Seq: its rows dequantized into one fp32 page.
// Appends still quantize identically, so comparing a run through this wrapper
// against the bare cache proves the dequantize-on-read page walk is
// bit-identical to walking the dequantized rows across a full generation.
type seqOnlyQuant struct {
	inner *kvcache.PagedKV
}

func (c *seqOnlyQuant) Shape() kvcache.Shape { return c.inner.Shape() }
func (c *seqOnlyQuant) AppendFlatN(layer, n int, k, v []float32) {
	c.inner.AppendFlatN(layer, n, k, v)
}
func (c *seqOnlyQuant) Seq(layer, head int) ([]float32, []float32) {
	return c.inner.Seq(layer, head)
}
func (c *seqOnlyQuant) Positions(layer, head int) []int { return c.inner.Positions(layer, head) }
func (c *seqOnlyQuant) Len(layer, head int) int         { return c.inner.Len(layer, head) }
func (c *seqOnlyQuant) TotalAppended() int              { return c.inner.TotalAppended() }
func (c *seqOnlyQuant) MemoryBytes() int64              { return c.inner.MemoryBytes() }

// TestQuantDecodeBitIdentical proves the quantized fast path (code rows
// dequantized a sub-tile at a time into the block walk's two GEMMs) produces
// bit-identical logits, hiddens, and greedy token streams to the walk over
// Seq's dequantized rows of the same quantized storage, for both code widths and both
// attention layouts.
func TestQuantDecodeBitIdentical(t *testing.T) {
	for _, cfg := range []Config{Tiny(), TinyMHA()} {
		for _, bits := range []int{8, 4} {
			m := New(cfg, 23)
			prompt := []int{1, 2, 3, 4, 5, 6, 7}
			mk := func() *kvcache.PagedKV {
				return kvcache.NewPagedKVQuant(m.CacheShape(), 4, 0, bits)
			}
			ref := generate(m, prompt, &seqOnlyQuant{inner: mk()}, 24)
			got := generate(m, prompt, mk(), 24)
			if len(got.Tokens) != len(ref.Tokens) {
				t.Fatalf("%s/int%d: token count %d != %d", cfg.Name, bits, len(got.Tokens), len(ref.Tokens))
			}
			for i := range ref.Tokens {
				if got.Tokens[i] != ref.Tokens[i] {
					t.Fatalf("%s/int%d: token %d = %d, want %d", cfg.Name, bits, i, got.Tokens[i], ref.Tokens[i])
				}
			}
			for i := range ref.Hiddens {
				for j := range ref.Hiddens[i] {
					if got.Hiddens[i][j] != ref.Hiddens[i][j] {
						t.Fatalf("%s/int%d: hidden (%d,%d) not bit-identical", cfg.Name, bits, i, j)
					}
				}
			}
		}
	}
}

// TestQuantPrefillChunkBitIdentical pins chunked prefill over quantized pages
// against token-at-a-time prefill: per-token quantize-on-append means chunk
// size must not change a single stored code, logit, or subsequent decode
// token. This is the property that makes preemption→recompute deterministic
// under quantization regardless of the recompute's chunking. Every chunk
// size also runs through seqOnlyQuant, so the page walk's mid-page causal
// bound (4-token pages, chunks of 3 and 7) is compared with the same bound
// on Seq's one page for each page codec; bits 0 is the fp32-page row.
func TestQuantPrefillChunkBitIdentical(t *testing.T) {
	const promptLen = 23
	m := New(Tiny(), 11)
	ws := newSolo(m)
	bw := m.NewBatchWorkspace(0)
	prompt := make([]int, promptLen)
	for i := range prompt {
		prompt[i] = (i*29 + 7) % m.Config().Vocab
	}
	for _, bits := range []int{0, 8, 4} {
		mk := func() *kvcache.PagedKV {
			return kvcache.NewPagedKVQuant(m.CacheShape(), 4, 0, bits)
		}
		ref := mk()
		want := ws.prefill(prompt, ref)
		want = StepResult{
			Logits: append([]float32(nil), want.Logits...),
			Hidden: append([]float32(nil), want.Hidden...),
		}
		wantDecode := make([]int, 6)
		pos := promptLen
		next := tensor.Argmax(want.Logits)
		for s := range wantDecode {
			wantDecode[s] = next
			sr := ws.step(next, pos, ref)
			next = tensor.Argmax(sr.Logits)
			pos++
		}

		for _, chunkSize := range []int{1, 3, 7, promptLen + 9} {
			cache := mk()
			got := m.PrefillChunkInto(bw, prompt, chunkSize, cache)
			equalStep(t, "quant chunk result", got, want)
			generic := m.PrefillChunkInto(bw, prompt, chunkSize, &seqOnlyQuant{inner: mk()})
			equalStep(t, "quant chunk result over Seq", generic, want)
			pos := promptLen
			next := tensor.Argmax(got.Logits)
			for s, wantTok := range wantDecode {
				if next != wantTok {
					t.Fatalf("int%d chunk=%d decode step %d: token %d != %d", bits, chunkSize, s, next, wantTok)
				}
				sr := ws.step(next, pos, cache)
				next = tensor.Argmax(sr.Logits)
				pos++
			}
		}
		// Stored-code identity on a fresh fill: the quantized pages
		// themselves, not just their dequantized views, must match.
		for _, chunkSize := range []int{3, 7} {
			refCache := mk()
			ws.prefill(prompt, refCache)
			cache := mk()
			m.PrefillChunkInto(bw, prompt, chunkSize, cache)
			equalCaches(t, "quant chunked cache", cache, refCache)
			if bits == 0 {
				continue // fp32 pages hold no codes
			}
			shape := m.CacheShape()
			for l := 0; l < shape.Layers; l++ {
				if got, want := cache.LayerPages(l), refCache.LayerPages(l); got != want {
					t.Fatalf("int%d chunk=%d layer %d: %d pages != %d", bits, chunkSize, l, got, want)
				}
				for p := 0; p < refCache.LayerPages(l); p++ {
					for _, vals := range []bool{false, true} {
						gp, _ := cache.Rows(l, p, 0, vals)
						wp, _ := refCache.Rows(l, p, 0, vals)
						if string(gp.Codes) != string(wp.Codes) {
							t.Fatalf("int%d chunk=%d layer %d page %d: codes differ", bits, chunkSize, l, p)
						}
					}
				}
			}
		}
	}
}

// TestQuantDecodeAllocs is TestForwardOneLaneZeroAllocs for the quantized hot
// path: the dequantize-on-read page walk allocates nothing, so the only
// allocation source is opening a fresh page every pageTokens steps — two
// backing arrays per layer, amortising well under one allocation per step.
func TestQuantDecodeAllocs(t *testing.T) {
	for _, bits := range []int{8, 4} {
		m := New(Tiny(), 1)
		ws := newSolo(m)
		cache := kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, bits)
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
			t.Fatalf("int%d: one-lane step allocates %.2f/step, want amortised < 1", bits, avg)
		}
	}
}
