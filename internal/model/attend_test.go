package model

import (
	"fmt"
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// seqOnly hides a cache's fast path (kvcache.Paged: the flat append and the
// page rows), so the model takes the generic Seq arm —
// tensor.Dot and tensor.AXPY over per-token views, the scalar reference —
// over the same storage and the same appended bytes.
type seqOnly struct{ kvcache.Cache }

// TestBlockWalkMatchesSeqArm pins the block walk to the Seq arm bit for bit
// on the shapes the benchmark's model never runs: GQA groups of 1, 2, 4, 8
// (wider than one tile's four lanes) and 20 (wider than one block, which then
// splits mid-group), a head dimension that makes the value panel ragged, pages smaller than, equal to and larger than a 16-token
// sub-tile, every page codec and Full's flat buffer. Each cell decodes 21
// tokens one at a time, packs a 32-row chunk that starts mid-page, then
// decodes six more through both step entries.
func TestBlockWalkMatchesSeqArm(t *testing.T) {
	shapes := []struct{ heads, kvHeads, headDim int }{{4, 4, 16}, {4, 2, 16}, {8, 2, 16}, {8, 1, 16}, {20, 1, 8}, {4, 2, 24}}
	kinds := []struct {
		name string
		mk   func(m *Model, pageTokens int) kvcache.Cache
	}{
		{"full", func(m *Model, _ int) kvcache.Cache { return kvcache.NewFull(m.CacheShape()) }},
		{"fp32", func(m *Model, pt int) kvcache.Cache { return kvcache.NewPagedKV(m.CacheShape(), pt) }},
		{"int8", func(m *Model, pt int) kvcache.Cache { return kvcache.NewPagedKVQuant(m.CacheShape(), pt, 0, 8) }},
		{"int4", func(m *Model, pt int) kvcache.Cache { return kvcache.NewPagedKVQuant(m.CacheShape(), pt, 0, 4) }},
	}
	const decodeLen, chunkLen, tailLen = 21, 32, 6
	for _, sh := range shapes {
		cfg := Tiny()
		cfg.Layers, cfg.Heads, cfg.KVHeads, cfg.HeadDim = 2, sh.heads, sh.kvHeads, sh.headDim
		if sh.heads == sh.kvHeads {
			cfg = TinyMHA()
			cfg.Layers = 2
		}
		m := New(cfg, 31)
		ws, wsRef := m.NewWorkspace(), m.NewWorkspace()
		bw, bwRef := m.NewBatchWorkspace(0), m.NewBatchWorkspace(0)
		tok := func(i int) int { return (i*37 + 11) % cfg.Vocab }
		for _, kind := range kinds {
			for _, pt := range []int{4, 16, 32} {
				if kind.name == "full" && pt != 4 {
					continue // one flat buffer, no pages
				}
				label := fmt.Sprintf("group=%d hd=%d %s page=%d", cfg.GroupSize(), cfg.HeadDim, kind.name, pt)
				cache, ref := kind.mk(m, pt), kvcache.Cache(seqOnly{kind.mk(m, pt)})
				pos := 0
				for ; pos < decodeLen; pos++ {
					got, want := m.ForwardInto(ws, tok(pos), pos, cache), m.ForwardInto(wsRef, tok(pos), pos, ref)
					equalStep(t, fmt.Sprintf("%s decode %d", label, pos), got, want)
				}
				chunk := make([]int, chunkLen)
				for i := range chunk {
					chunk[i] = tok(pos + i)
				}
				got, want := m.PrefillChunkInto(bw, chunk, chunkLen, cache), m.PrefillChunkInto(bwRef, chunk, chunkLen, ref)
				equalStep(t, label+" chunk", got, want)
				pos += chunkLen
				for i := 0; i < tailLen; i, pos = i+1, pos+1 {
					want := m.ForwardInto(wsRef, tok(pos), pos, ref)
					var got StepResult
					if i%2 == 0 {
						got = m.ForwardInto(ws, tok(pos), pos, cache)
					} else {
						res, _ := m.ForwardMixedInto(bw, []int{tok(pos)}, []int{pos}, []kvcache.Cache{cache}, nil)
						got = res[0]
					}
					equalStep(t, fmt.Sprintf("%s tail %d", label, pos), got, want)
				}
				equalCaches(t, label, cache, ref)
			}
		}
	}
}

// TestBlockWalkAllocs pins the page walk itself at 0 allocations over int8
// pages: a decode lane's GQA group, a 32-row chunk whose row blocks cut a page
// mid-tile, and Quest-selected blocks of one with the recall probe on (the
// probe re-scores through the block's scratch).
func TestBlockWalkAllocs(t *testing.T) {
	m := New(Tiny(), 1)
	defer m.SetSparseTopK(0)
	cache := kvcache.NewPagedKVQuant(m.CacheShape(), 16, 0, 8)
	cache.EnableKeySummaries()
	prompt := make([]int, 200)
	for i := range prompt {
		prompt[i] = i % Tiny().Vocab
	}
	bw := m.NewBatchWorkspace(32)
	m.PrefillChunkInto(bw, prompt, 64, cache)
	cp := pathOf(cache)
	for _, ws := range bw.lanes {
		copy(ws.q, m.embed.Row(7))
		tensor.RoPESincosInto(ws.ropeSin, ws.ropeCos, m.ropeFreqs, 199)
	}
	blk := bw.blks[0]
	walks := []struct {
		name string
		topK int
		run  func()
	}{
		{"decode group", 0, func() { m.attendOver(bw.lanes[:1], blk, &cp, 1, -1) }},
		{"32-row chunk", 0, func() { m.attendOver(bw.lanes[:32], blk, &cp, 1, 200-32-5) }},
		{"quest + recall probe", 4, func() { m.attendOver(bw.lanes[:1], blk, &cp, 1, -1) }},
	}
	for _, w := range walks {
		m.SetSparseTopK(w.topK)
		bw.lanes[0].SetRecallProbe(w.topK > 0)
		if n := testing.AllocsPerRun(20, w.run); n != 0 {
			t.Fatalf("%s: page walk allocated %.1f per run, want 0", w.name, n)
		}
	}
	if mass, cnt := bw.lanes[0].TakeRecall(); cnt == 0 || mass <= 0 || mass > float64(cnt) {
		t.Fatalf("recall probe recorded mass %g over %d attentions", mass, cnt)
	}
}
