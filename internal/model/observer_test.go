package model

import (
	"fmt"
	"math"
	"testing"

	"rethinkkv/internal/kvcache"
)

// observation is one ObserveAttention call: its layer and KV head, and a copy
// of the weights it was shown.
type observation struct {
	layer, head int
	w           []float32
}

// recorder is a test-only attention observer: it keeps every call in order.
type recorder struct{ calls []observation }

func (r *recorder) ObserveAttention(layer, head int, w []float32) {
	r.calls = append(r.calls, observation{layer, head, append([]float32(nil), w...)})
}

// observedPaged is a page-walk cache that also observes attention: the walk
// shows it every query's weights through the block softmax.
type observedPaged struct {
	kvcache.Paged
	*recorder
}

// observedSeq is the same cache on the generic Seq arm — Paged hidden — with
// the same observer: the reference order and weights.
type observedSeq struct {
	kvcache.Cache
	*recorder
}

// sameObservation asserts one call of the walk equals the Seq arm's, bit for
// bit.
func sameObservation(t *testing.T, label string, got, want observation) {
	t.Helper()
	if got.layer != want.layer || got.head != want.head || len(got.w) != len(want.w) {
		t.Fatalf("%s: walk observed (layer %d, head %d, %d weights), Seq arm (layer %d, head %d, %d weights)",
			label, got.layer, got.head, len(got.w), want.layer, want.head, len(want.w))
	}
	for i := range want.w {
		if math.Float32bits(got.w[i]) != math.Float32bits(want.w[i]) {
			t.Fatalf("%s: weight %d is %g (%#x), Seq arm %g (%#x)", label, i, got.w[i], math.Float32bits(got.w[i]), want.w[i], math.Float32bits(want.w[i]))
		}
	}
}

// TestBlockWalkObserverMatchesSeqArm pins what an attention observer sees on
// the page walk — the hook H2O-style eviction reads — to what it sees on the
// Seq arm, over Full, fp32 pages and int8 pages, on the benchmark model's
// shape and on tiny GQA shapes.
//
// A decode step shows every query head's weights in the Seq arm's order —
// per layer, query heads ascending, each with its KV head — and the same
// bits. A chunk shows every (row, query head) weight row with the same bits,
// in the walk's head-major order: per layer, KV head by KV head, the chunk's
// rows in order, each row's query heads of that KV head ascending (the Seq arm
// goes row by row, every query head of a row in turn).
func TestBlockWalkObserverMatchesSeqArm(t *testing.T) {
	shapes := []struct{ heads, kvHeads, headDim int }{{8, 4, 32}, {4, 2, 16}, {8, 2, 16}}
	kinds := []struct {
		name string
		mk   func(m *Model) kvcache.Cache
	}{
		{"full", func(m *Model) kvcache.Cache { return kvcache.NewFull(m.CacheShape()) }},
		{"fp32", func(m *Model) kvcache.Cache { return kvcache.NewPagedKV(m.CacheShape(), 16) }},
		{"int8", func(m *Model) kvcache.Cache { return kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, 8) }},
	}
	const decodeLen, chunkLen = 19, 24
	for _, sh := range shapes {
		cfg := Small()
		cfg.Layers, cfg.Heads, cfg.KVHeads, cfg.HeadDim = 2, sh.heads, sh.kvHeads, sh.headDim
		m := New(cfg, 5)
		group := cfg.GroupSize()
		tok := func(i int) int { return (i*29 + 3) % cfg.Vocab }
		for _, kind := range kinds {
			label := fmt.Sprintf("heads=%d/%d hd=%d %s", cfg.Heads, cfg.KVHeads, cfg.HeadDim, kind.name)
			cache := kind.mk(m)
			gotRec, wantRec := &recorder{}, &recorder{}
			got := observedPaged{cache.(kvcache.Paged), gotRec}
			want := observedSeq{kind.mk(m), wantRec}
			ws, wsRef := newSolo(m), newSolo(m)
			for pos := 0; pos < decodeLen; pos++ {
				gotRec.calls, wantRec.calls = nil, nil
				ws.step(tok(pos), pos, got)
				wsRef.step(tok(pos), pos, want)
				if len(gotRec.calls) != cfg.Layers*cfg.Heads || len(wantRec.calls) != len(gotRec.calls) {
					t.Fatalf("%s decode %d: walk made %d calls, Seq arm %d, want %d", label, pos, len(gotRec.calls), len(wantRec.calls), cfg.Layers*cfg.Heads)
				}
				for i, c := range wantRec.calls {
					if c.head != (i%cfg.Heads)/group {
						t.Fatalf("%s decode %d: Seq arm call %d has head %d", label, pos, i, c.head)
					}
					sameObservation(t, fmt.Sprintf("%s decode %d call %d", label, pos, i), gotRec.calls[i], c)
				}
			}
			chunk := make([]int, chunkLen)
			for i := range chunk {
				chunk[i] = tok(decodeLen + i)
			}
			gotRec.calls, wantRec.calls = nil, nil
			m.PrefillChunkInto(m.NewBatchWorkspace(0), chunk, chunkLen, got)
			m.PrefillChunkInto(m.NewBatchWorkspace(0), chunk, chunkLen, want)
			perLayer := chunkLen * cfg.Heads
			if len(gotRec.calls) != cfg.Layers*perLayer || len(wantRec.calls) != len(gotRec.calls) {
				t.Fatalf("%s chunk: walk made %d calls, Seq arm %d, want %d", label, len(gotRec.calls), len(wantRec.calls), cfg.Layers*perLayer)
			}
			for i, c := range gotRec.calls {
				l, k := i/perLayer, i%perLayer
				kh, row, g := k/(chunkLen*group), k%(chunkLen*group)/group, k%group
				ref := wantRec.calls[l*perLayer+row*cfg.Heads+kh*group+g]
				if len(c.w) != decodeLen+row+1 {
					t.Fatalf("%s chunk call %d: %d weights, row %d sees %d", label, i, len(c.w), row, decodeLen+row+1)
				}
				sameObservation(t, fmt.Sprintf("%s chunk layer %d row %d query head %d", label, l, row, kh*group+g), c, ref)
			}
		}
	}
}
