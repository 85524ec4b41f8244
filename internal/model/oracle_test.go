package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/tensor"
)

// attendSeq is the scalar oracle the page walk is held to: per query head of
// the row's query q, tensor.Dot and tensor.AXPY over cache.Seq's token rows,
// cut to the first limit+r (limit < 0: all), accumulated into out.
func (bw *BatchWorkspace) attendSeq(q, out []float32, cp *cachePath, l, limit, r int) {
	m := bw.m
	hd, group := m.cfg.HeadDim, m.cfg.GroupSize()
	for qh := 0; qh < m.cfg.Heads; qh++ {
		q, out := q[qh*hd:(qh+1)*hd], out[qh*hd:(qh+1)*hd]
		kh := qh / group
		n := limit + r
		if limit < 0 {
			n = cp.cache.Len(l, kh)
		}
		scores := make([]float32, n)
		keys, vals := cp.cache.Seq(l, kh)
		for i := range scores {
			scores[i] = tensor.Dot(q, keys[i*hd:(i+1)*hd]) * m.invSqrtHD
		}
		tensor.Softmax(scores)
		if cp.observer != nil {
			cp.observer.ObserveAttention(l, kh, scores)
		}
		for i, w := range scores {
			tensor.AXPY(out, w, vals[i*hd:(i+1)*hd])
		}
	}
}

// perHead splits a recorder's calls by KV head, each head's in call order.
func perHead(calls []observation, kvHeads int) [][]observation {
	out := make([][]observation, kvHeads)
	for _, c := range calls {
		out[c.head] = append(out[c.head], c)
	}
	return out
}

// oracleCaches are the caches TestAttendOverMatchesOracle walks: Full, fp32
// pages of 4 tokens (mid-page bounds, no sealing), int8 and int4 pages of
// 16 (sealed keys), and every registered method's cache.
func oracleCaches(shape kvcache.Shape) map[string]kvcache.Cache {
	cs := map[string]kvcache.Cache{
		"full": kvcache.NewFull(shape),
		"fp32": kvcache.NewPagedKV(shape, 4),
		"int8": kvcache.NewPagedKVQuant(shape, 16, 0, 8),
		"int4": kvcache.NewPagedKVQuant(shape, 16, 0, 4),
	}
	for _, name := range compress.Names() {
		cs[name] = compress.MustGet(name).NewCache(shape)
	}
	return cs
}

// TestAttendOverMatchesOracle pins attendOver — the one page walk, over a
// Paged cache's pages or another cache's Seq as one page per KV head — to the
// scalar oracle attendSeq bit for bit: every output, and every observer call
// in per-head order with the same weights, on the benchmark model's shape,
// tiny GQA shapes, MHA (a group of one), a group of eight, a group wider than
// one block and a head dimension that makes the value panel ragged. Each cache takes two chunks
// (causal bounds, 21 then 24 rows), then decodes one token at a time past
// every eviction budget and residual window; caches that observe attention
// are shown the walk's weights, so H2O and SnapKV evict by them.
func TestAttendOverMatchesOracle(t *testing.T) {
	shapes := []struct{ heads, kvHeads, headDim int }{{8, 4, 32}, {4, 2, 16}, {8, 2, 16}, {4, 4, 16}, {8, 1, 16}, {20, 1, 8}, {4, 2, 24}}
	const decodeTo = 150
	for _, sh := range shapes {
		cfg := Small()
		cfg.Layers, cfg.Heads, cfg.KVHeads, cfg.HeadDim = 2, sh.heads, sh.kvHeads, sh.headDim
		m := New(cfg, 5)
		h, kv := cfg.Hidden(), cfg.KVDim()
		for name, cache := range oracleCaches(m.CacheShape()) {
			label := fmt.Sprintf("heads=%d/%d hd=%d %s", cfg.Heads, cfg.KVHeads, cfg.HeadDim, name)
			r := rand.New(rand.NewSource(int64(len(name) + cfg.Heads)))
			draw := func(n int) []float32 {
				x := make([]float32, n)
				for i := range x {
					x[i] = float32(r.NormFloat64())
				}
				return x
			}
			bw := m.NewBatchWorkspace(1)
			walkRec, oracleRec := &recorder{}, &recorder{}
			cp := pathOf(cache)
			self := cp.observer
			cp.observer = walkRec
			ref := cachePath{cache: cache, observer: oracleRec}
			// attend appends rows tokens to layer l, attends rows queries
			// (limit as attendOver takes it) both ways and compares.
			attend := func(what string, l, rows, limit int) {
				cache.AppendFlatN(l, rows, draw(rows*kv), draw(rows*kv))
				qs, outs, want := make([][]float32, rows), make([][]float32, rows), make([]float32, h)
				for i := range qs {
					qs[i], outs[i] = draw(h), make([]float32, h)
				}
				walkRec.calls, oracleRec.calls = nil, nil
				bw.attendOver(qs, outs, &cp, l, limit)
				for i := range qs {
					clear(want)
					bw.attendSeq(qs[i], want, &ref, l, limit, i)
					for j := range want {
						if math.Float32bits(outs[i][j]) != math.Float32bits(want[j]) {
							t.Fatalf("%s %s layer %d row %d: output %d is %g, oracle %g", label, what, l, i, j, outs[i][j], want[j])
						}
					}
				}
				got, exp := perHead(walkRec.calls, cfg.KVHeads), perHead(oracleRec.calls, cfg.KVHeads)
				for kh := range exp {
					if len(got[kh]) != len(exp[kh]) {
						t.Fatalf("%s %s layer %d KV head %d: walk made %d observer calls, oracle %d", label, what, l, kh, len(got[kh]), len(exp[kh]))
					}
					for i := range exp[kh] {
						sameObservation(t, fmt.Sprintf("%s %s layer %d KV head %d call %d", label, what, l, kh, i), got[kh][i], exp[kh][i])
					}
				}
				if self != nil {
					for _, c := range walkRec.calls {
						self.ObserveAttention(c.layer, c.head, c.w)
					}
				}
			}
			pos := 0
			for _, rows := range []int{21, 24} {
				for l := 0; l < cfg.Layers; l++ {
					attend(fmt.Sprintf("chunk at %d", pos), l, rows, pos+1)
				}
				pos += rows
			}
			if pf, ok := cache.(compress.Prefiller); ok {
				pf.FinishPrefill()
			}
			for ; pos < decodeTo; pos++ {
				for l := 0; l < cfg.Layers; l++ {
					attend(fmt.Sprintf("decode %d", pos), l, 1, -1)
				}
			}
		}
	}
}
