package model

import (
	"fmt"
	"math"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// newCacheFn builds a fresh cache for one lane.
type newCacheFn func(m *Model) kvcache.Cache

var batchCacheKinds = []struct {
	name string
	mk   newCacheFn
}{
	{"full", func(m *Model) kvcache.Cache { return kvcache.NewFull(m.CacheShape()) }},
	{"paged", func(m *Model) kvcache.Cache { return kvcache.NewPagedKV(m.CacheShape(), 8) }},
}

// solo runs one stream alone through the fused pass at one decode lane: the
// reference every fused-lane test compares against. Its results alias its
// batch workspace until the next step, like ForwardMixedInto's.
type solo struct {
	m     *Model
	bw    *BatchWorkspace
	tok   [1]int
	pos   [1]int
	cache [1]kvcache.Cache
}

func newSolo(m *Model) *solo { return &solo{m: m, bw: m.NewBatchWorkspace(1)} }

// step forwards tok at pos through the lane.
func (s *solo) step(tok, pos int, cache kvcache.Cache) StepResult {
	s.tok[0], s.pos[0], s.cache[0] = tok, pos, cache
	res, _ := s.m.ForwardMixedInto(s.bw, s.tok[:], s.pos[:], s.cache[:], nil)
	return res[0]
}

// prefill steps prompt through the lane a token at a time from position 0
// and returns the last step's result.
func (s *solo) prefill(prompt []int, cache kvcache.Cache) StepResult {
	var res StepResult
	for i, tok := range prompt {
		res = s.step(tok, i, cache)
	}
	return res
}

// generated is a greedy continuation: the tokens and the final hidden state
// each one was chosen from.
type generated struct {
	Tokens  []int
	Hiddens [][]float32
}

// generate prefills prompt alone at one lane and greedily decodes n tokens.
func generate(m *Model, prompt []int, cache kvcache.Cache, n int) generated {
	s := newSolo(m)
	res := s.prefill(prompt, cache)
	var g generated
	for pos := len(prompt); len(g.Tokens) < n; pos++ {
		next := tensor.Argmax(res.Logits)
		g.Tokens = append(g.Tokens, next)
		g.Hiddens = append(g.Hiddens, append([]float32(nil), res.Hidden...))
		res = s.step(next, pos, cache)
	}
	return g
}

// prefillLane prefills a distinct pseudo-random prompt per lane so lanes
// sit at different (mixed) positions, and returns the prompts.
func prefillLane(m *Model, ws *solo, cache kvcache.Cache, lane int) []int {
	n := 5 + 7*lane%23 + lane // mixed prompt lengths
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = (lane*131 + i*17 + 3) % m.Config().Vocab
	}
	ws.prefill(prompt, cache)
	return prompt
}

// TestForwardBatchIntoBitIdentical pins fused batched decode
// (ForwardMixedInto with no chunks) against each stream stepped alone at one
// lane, bit-for-bit: batch sizes {1, 2, 3, 8}, mixed positions, Full and
// PagedKV caches, several greedy decode steps deep (so each step consumes
// cache state written by the previous fused step).
func TestForwardBatchIntoBitIdentical(t *testing.T) {
	for _, kind := range batchCacheKinds {
		for _, B := range []int{1, 2, 3, 8} {
			m := New(Tiny(), 11)
			ws := newSolo(m)
			bw := m.NewBatchWorkspace(B)

			seqCaches := make([]kvcache.Cache, B)
			batCaches := make([]kvcache.Cache, B)
			positions := make([]int, B)
			tokens := make([]int, B)
			for b := 0; b < B; b++ {
				seqCaches[b] = kind.mk(m)
				batCaches[b] = kind.mk(m)
				prompt := prefillLane(m, ws, seqCaches[b], b)
				prefillLane(m, ws, batCaches[b], b)
				positions[b] = len(prompt)
				tokens[b] = (b*37 + 5) % m.Config().Vocab
			}

			for step := 0; step < 6; step++ {
				// Reference: advance each lane with the per-session path.
				wantLogits := make([][]float32, B)
				wantHidden := make([][]float32, B)
				nextTok := make([]int, B)
				for b := 0; b < B; b++ {
					sr := ws.step(tokens[b], positions[b], seqCaches[b])
					wantLogits[b] = append([]float32(nil), sr.Logits...)
					wantHidden[b] = append([]float32(nil), sr.Hidden...)
					nextTok[b] = tensor.Argmax(sr.Logits)
				}
				// Fused step over the twin caches.
				results, _ := m.ForwardMixedInto(bw, tokens, positions, batCaches, nil)
				for b := 0; b < B; b++ {
					for j := range wantLogits[b] {
						if math.Float32bits(results[b].Logits[j]) != math.Float32bits(wantLogits[b][j]) {
							t.Fatalf("%s B=%d step %d lane %d logit %d: %x != %x",
								kind.name, B, step, b, j,
								math.Float32bits(results[b].Logits[j]), math.Float32bits(wantLogits[b][j]))
						}
					}
					for j := range wantHidden[b] {
						if math.Float32bits(results[b].Hidden[j]) != math.Float32bits(wantHidden[b][j]) {
							t.Fatalf("%s B=%d step %d lane %d hidden %d differs", kind.name, B, step, b, j)
						}
					}
					if got := tensor.Argmax(results[b].Logits); got != nextTok[b] {
						t.Fatalf("%s B=%d step %d lane %d: next token %d != %d", kind.name, B, step, b, got, nextTok[b])
					}
					tokens[b] = nextTok[b]
					positions[b]++
				}
				// The caches must have recorded identical state.
				for b := 0; b < B; b++ {
					if seqCaches[b].TotalAppended() != batCaches[b].TotalAppended() {
						t.Fatalf("%s lane %d appended %d != %d", kind.name, b, batCaches[b].TotalAppended(), seqCaches[b].TotalAppended())
					}
				}
			}
		}
	}
}

// TestForwardMixedGrowsMidStream steps one decode lane on one workspace
// through passes of 1 row, then 40 — a 39-row chunk packed beside the lane,
// so the row store grows mid-stream — then 2, the lane beside the chunk's
// next token. The lane's stream must equal solo stepping, and the chunk's
// cache writes and last-row logits token-at-a-time prefill, bit for bit.
func TestForwardMixedGrowsMidStream(t *testing.T) {
	const first, chunkLen, tail = 3, 39, 4
	for _, kind := range batchCacheKinds {
		m := New(Tiny(), 13)
		laneRef, chunkRef := newSolo(m), newSolo(m)
		bw := m.NewBatchWorkspace(1)
		lane, laneWant := kind.mk(m), kind.mk(m)
		chunkCache, chunkWant := kind.mk(m), kind.mk(m)
		prompt := make([]int, chunkLen+tail)
		for i := range prompt {
			prompt[i] = (i*29 + 7) % m.Config().Vocab
		}
		tok, pos := 3, 0
		// pass steps the lane beside chunk (nil: alone), checks its result
		// and that the store then holds rows rows, and returns chunk's.
		pass := func(chunk []Chunk, rows int) []StepResult {
			t.Helper()
			want := laneRef.step(tok, pos, laneWant)
			res, cres := m.ForwardMixedInto(bw, []int{tok}, []int{pos}, []kvcache.Cache{lane}, chunk)
			label := fmt.Sprintf("%s lane pos %d", kind.name, pos)
			equalStep(t, label, res[0], want)
			if len(bw.hs) != rows {
				t.Fatalf("%s: store holds %d rows, want %d", label, len(bw.hs), rows)
			}
			tok, pos = tensor.Argmax(res[0].Logits), pos+1
			return cres
		}
		for i := 0; i < first; i++ {
			pass(nil, 1)
		}
		chunkRef.prefill(prompt[:chunkLen], chunkWant)
		pass([]Chunk{{Tokens: prompt[:chunkLen], Cache: chunkCache}}, 1+chunkLen)
		for i := chunkLen; i < len(prompt); i++ {
			want := chunkRef.step(prompt[i], i, chunkWant)
			cres := pass([]Chunk{{Tokens: prompt[i : i+1], Pos: i, Cache: chunkCache, NeedLogits: true}}, 1+chunkLen)
			equalStep(t, fmt.Sprintf("%s chunk pos %d", kind.name, i), cres[0], want)
		}
		equalCaches(t, kind.name+" lane", lane, laneWant)
		equalCaches(t, kind.name+" chunk", chunkCache, chunkWant)
	}
}

// TestForwardBatchIntoAllocFree proves the fused steady-state step
// performs zero heap allocations per step. The caches
// are paged with a page far larger than the decode window so cache-side
// append growth — amortized, and priced separately by the decode
// benchmarks — cannot blur the workspace measurement.
func TestForwardBatchIntoAllocFree(t *testing.T) {
	const B = 8
	m := New(Tiny(), 7)
	ws := newSolo(m)
	bw := m.NewBatchWorkspace(B)
	caches := make([]kvcache.Cache, B)
	tokens := make([]int, B)
	positions := make([]int, B)
	for b := 0; b < B; b++ {
		caches[b] = kvcache.NewPagedKV(m.CacheShape(), 1024)
		prompt := prefillLane(m, ws, caches[b], b)
		positions[b] = len(prompt)
		tokens[b] = b % m.Config().Vocab
	}
	// Warm the score buffers past the positions the loop will reach.
	m.ForwardMixedInto(bw, tokens, positions, caches, nil)
	for b := 0; b < B; b++ {
		positions[b]++
	}
	if n := testing.AllocsPerRun(50, func() {
		m.ForwardMixedInto(bw, tokens, positions, caches, nil)
		for b := 0; b < B; b++ {
			positions[b]++
		}
	}); n != 0 {
		t.Fatalf("fused step allocated %v per run", n)
	}
}

// TestForwardBatchIntoValidation covers the contract panics.
func TestForwardBatchIntoValidation(t *testing.T) {
	m := New(Tiny(), 1)
	bw := m.NewBatchWorkspace(1)
	cache := kvcache.NewFull(m.CacheShape())

	if got, _ := m.ForwardMixedInto(bw, nil, nil, nil, nil); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
	assertPanics(t, "length mismatch", func() {
		m.ForwardMixedInto(bw, []int{1}, nil, []kvcache.Cache{cache}, nil)
	})
	assertPanics(t, "token range", func() {
		m.ForwardMixedInto(bw, []int{-1}, []int{0}, []kvcache.Cache{cache}, nil)
	})
	assertPanics(t, "token == Vocab", func() {
		m.ForwardMixedInto(bw, []int{Tiny().Vocab}, []int{0}, []kvcache.Cache{cache}, nil)
	})
	assertPanics(t, "foreign workspace", func() {
		other := New(Tiny(), 2)
		m.ForwardMixedInto(other.NewBatchWorkspace(1), []int{1}, []int{0}, []kvcache.Cache{cache}, nil)
	})
	assertPanics(t, "cache shape", func() {
		bad := kvcache.NewFull(kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 2})
		m.ForwardMixedInto(bw, []int{1}, []int{0}, []kvcache.Cache{bad}, nil)
	})
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}
