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

// oracleObserved is a cache that observes attention and, once it has stored
// an append, runs the scalar oracle (attendSeq) over the query rows the pass
// attends next — the workspace's first n rows, a decode lane's one row or a
// lone chunk's rows — showing the oracle's weights to ref. The walk that
// follows shows its own to the embedded recorder. Paged stays visible when
// the cache has it, so the walk reads its pages; hidden, the walk reads each
// KV head's Seq as one page.
type oracleObserved struct {
	kvcache.Cache
	*recorder
	ref   *recorder
	bw    *BatchWorkspace
	chunk bool // the pass is one chunk from TotalAppended, else one decode lane
}

// pagedOracle is oracleObserved over a Paged cache, Paged kept visible.
type pagedOracle struct {
	*oracleObserved
	kvcache.Paged
}

func (c *pagedOracle) AppendFlatN(l, n int, k, v []float32) { c.oracleObserved.AppendFlatN(l, n, k, v) }

func (c *oracleObserved) AppendFlatN(l, n int, k, v []float32) {
	limit := -1
	if c.chunk {
		limit = c.TotalAppended() + 1
	}
	c.Cache.AppendFlatN(l, n, k, v)
	cp := cachePath{cache: c.Cache, observer: c.ref}
	out := make([]float32, c.bw.m.cfg.Hidden())
	for r := 0; r < n; r++ {
		clear(out)
		c.bw.attendSeq(c.bw.qs[r], out, &cp, l, limit, r)
	}
}

// sameObservation asserts one call of the walk equals the oracle's, bit for
// bit.
func sameObservation(t *testing.T, label string, got, want observation) {
	t.Helper()
	if got.layer != want.layer || got.head != want.head || len(got.w) != len(want.w) {
		t.Fatalf("%s: walk observed (layer %d, head %d, %d weights), oracle (layer %d, head %d, %d weights)",
			label, got.layer, got.head, len(got.w), want.layer, want.head, len(want.w))
	}
	for i := range want.w {
		if math.Float32bits(got.w[i]) != math.Float32bits(want.w[i]) {
			t.Fatalf("%s: weight %d is %g (%#x), oracle %g (%#x)", label, i, got.w[i], math.Float32bits(got.w[i]), want.w[i], math.Float32bits(want.w[i]))
		}
	}
}

// TestBlockWalkObserverMatchesSeqArm pins what an attention observer sees on
// the page walk — the hook H2O-style eviction reads — through whole forward
// passes to what the scalar oracle (attendSeq) shows it over the same rows,
// over Full, fp32 pages and int8 pages, each read page by page and, Paged
// hidden, as one Seq page per KV head, on the benchmark model's shape and on
// tiny GQA shapes.
//
// A decode step shows every query head's weights in the oracle's order —
// per layer, query heads ascending, each with its KV head — and the same
// bits. A chunk shows every (row, query head) weight row with the same bits,
// in the walk's head-major order: per layer, KV head by KV head, the chunk's
// rows in order, each row's query heads of that KV head ascending (the oracle
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
			for _, hidden := range []bool{false, true} {
				label := fmt.Sprintf("heads=%d/%d hd=%d %s hidden=%v", cfg.Heads, cfg.KVHeads, cfg.HeadDim, kind.name, hidden)
				gotRec, wantRec := &recorder{}, &recorder{}
				ws := newSolo(m)
				oc := &oracleObserved{Cache: kind.mk(m), recorder: gotRec, ref: wantRec, bw: ws.bw}
				var got kvcache.Cache = oc
				if !hidden {
					got = &pagedOracle{oc, oc.Cache.(kvcache.Paged)}
				}
				for pos := 0; pos < decodeLen; pos++ {
					gotRec.calls, wantRec.calls = nil, nil
					ws.step(tok(pos), pos, got)
					if len(gotRec.calls) != cfg.Layers*cfg.Heads || len(wantRec.calls) != len(gotRec.calls) {
						t.Fatalf("%s decode %d: walk made %d calls, oracle %d, want %d", label, pos, len(gotRec.calls), len(wantRec.calls), cfg.Layers*cfg.Heads)
					}
					for i, c := range wantRec.calls {
						if c.head != (i%cfg.Heads)/group {
							t.Fatalf("%s decode %d: oracle call %d has head %d", label, pos, i, c.head)
						}
						sameObservation(t, fmt.Sprintf("%s decode %d call %d", label, pos, i), gotRec.calls[i], c)
					}
				}
				chunk := make([]int, chunkLen)
				for i := range chunk {
					chunk[i] = tok(decodeLen + i)
				}
				gotRec.calls, wantRec.calls = nil, nil
				oc.bw, oc.chunk = m.NewBatchWorkspace(0), true
				m.PrefillChunkInto(oc.bw, chunk, chunkLen, got)
				perLayer := chunkLen * cfg.Heads
				if len(gotRec.calls) != cfg.Layers*perLayer || len(wantRec.calls) != len(gotRec.calls) {
					t.Fatalf("%s chunk: walk made %d calls, oracle %d, want %d", label, len(gotRec.calls), len(wantRec.calls), cfg.Layers*perLayer)
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
}
