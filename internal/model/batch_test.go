package model

import (
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

// prefillLane prefills a distinct pseudo-random prompt per lane so lanes
// sit at different (mixed) positions, and returns the prompts.
func prefillLane(m *Model, ws *Workspace, cache kvcache.Cache, lane int) []int {
	n := 5 + 7*lane%23 + lane // mixed prompt lengths
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = (lane*131 + i*17 + 3) % m.Config().Vocab
	}
	m.PrefillInto(ws, prompt, cache)
	return prompt
}

// TestForwardBatchIntoBitIdentical pins fused batched decode
// (ForwardMixedInto with no chunks) against per-session ForwardInto
// bit-for-bit: batch sizes {1, 2, 3, 8} — a batch of one is the same fused
// pass, not a separate path — mixed positions, Full and PagedKV caches,
// several greedy decode steps deep (so each step consumes cache state
// written by the previous fused step).
func TestForwardBatchIntoBitIdentical(t *testing.T) {
	for _, kind := range batchCacheKinds {
		for _, B := range []int{1, 2, 3, 8} {
			m := New(Tiny(), 11)
			ws := m.NewWorkspace()
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
					sr := m.ForwardInto(ws, tokens[b], positions[b], seqCaches[b])
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

// TestForwardBatchIntoWorkers pins the panel/lane-sharded parallel step to
// the serial step bit-for-bit.
func TestForwardBatchIntoWorkers(t *testing.T) {
	const B = 8
	m := New(Tiny(), 13)
	ws := m.NewWorkspace()

	serial := m.NewBatchWorkspace(B)
	parallel := m.NewBatchWorkspace(B)
	parallel.SetWorkers(4)
	if parallel.workers != 4 {
		t.Fatalf("workers = %d", parallel.workers)
	}

	sc := make([]kvcache.Cache, B)
	pc := make([]kvcache.Cache, B)
	tokens := make([]int, B)
	positions := make([]int, B)
	for b := 0; b < B; b++ {
		sc[b] = kvcache.NewFull(m.CacheShape())
		pc[b] = kvcache.NewFull(m.CacheShape())
		prompt := prefillLane(m, ws, sc[b], b)
		prefillLane(m, ws, pc[b], b)
		positions[b] = len(prompt)
		tokens[b] = (b * 11) % m.Config().Vocab
	}
	for step := 0; step < 4; step++ {
		want, _ := m.ForwardMixedInto(serial, tokens, positions, sc, nil)
		wantCopy := make([][]float32, B)
		for b := range want {
			wantCopy[b] = append([]float32(nil), want[b].Logits...)
		}
		got, _ := m.ForwardMixedInto(parallel, tokens, positions, pc, nil)
		for b := 0; b < B; b++ {
			for j := range wantCopy[b] {
				if math.Float32bits(got[b].Logits[j]) != math.Float32bits(wantCopy[b][j]) {
					t.Fatalf("step %d lane %d logit %d: parallel differs from serial", step, b, j)
				}
			}
			tokens[b] = tensor.Argmax(got[b].Logits)
			positions[b]++
		}
	}
}

// TestForwardBatchIntoAllocFree proves the fused steady-state step
// performs zero heap allocations per step (serial workers). The caches
// are paged with a page far larger than the decode window so cache-side
// append growth — amortized, and priced separately by the decode
// benchmarks — cannot blur the workspace measurement.
func TestForwardBatchIntoAllocFree(t *testing.T) {
	const B = 8
	m := New(Tiny(), 7)
	ws := m.NewWorkspace()
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
