package model

import (
	"math"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/tensor"
)

// This file is the model itself — its weights, built once by New, and the
// cache paths a pass resolves — and the dispatch of a set of query rows'
// attention (attendOver) into blocks for the one page walk (attend.go), over
// the BatchWorkspace's scratch. Every cache is read through that walk: a
// Paged cache page by page, any other as one page per KV head, its Seq.

// layerWeights holds one transformer block's parameters. Each projection
// weight is resident once, in tensor.Packed panel layout — the only layout
// the forward pass (ForwardMixedInto) reads. Weights are immutable after New.
type layerWeights struct {
	attnNorm []float32
	wq       *tensor.Packed // Hidden × Hidden
	wk       *tensor.Packed // Hidden × KVDim
	wv       *tensor.Packed // Hidden × KVDim
	wo       *tensor.Packed // Hidden × Hidden
	ffnNorm  []float32
	wGate    *tensor.Packed // Hidden × FFNDim
	wUp      *tensor.Packed // Hidden × FFNDim
	wDown    *tensor.Packed // FFNDim × Hidden
}

// Model is a runnable tiny transformer with deterministic random weights.
// It is immutable after New but for SetSparseTopK, and holds no scratch: every
// caller steps it through ForwardMixedInto with a BatchWorkspace of its own,
// so any number of goroutines may drive one Model, each over its own
// workspace and caches.
type Model struct {
	cfg       Config
	embed     *tensor.Matrix // Vocab × Hidden, row-major for the token-row lookup
	embedT    *tensor.Packed // Hidden × Vocab: the tied LM head, logits = finalᵀ × embedᵀ
	layers    []layerWeights
	norm      []float32
	ropeFreqs []float64 // RoPE frequency schedule, precomputed once
	invSqrtHD float32   // 1/sqrt(HeadDim), the attention score scale

	// sparseTopK > 0 turns on Quest sparse decode attention: each head
	// scores the cache's per-page key summaries against its query and
	// attends only the topK most critical pages (tail always included).
	// Set before decoding starts; see SetSparseTopK.
	sparseTopK int
}

// New builds a model with weights drawn deterministically from seed, scaled
// with 1/sqrt(fanIn) so activations stay well-conditioned. Every weight is
// float32(r.NormFloat64())·scale, drawn matrix by matrix in the order below and
// row-major within each, a row at a time: rng.Polar fills the row's accepted
// polar pairs and tensor.NormalsInto turns them into the row's weights,
// straight into the packed panels. embed alone is row-major, for the token-row
// lookup; the LM head embedᵀ is gathered from it into its panels.
func New(cfg Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(seed)
	h := cfg.Hidden()
	width := max(h, cfg.KVDim(), cfg.FFNDim)
	u, s := make([]float64, width), make([]float64, width)
	// draw sets row to the next len(row) normal draws times scale.
	draw := func(row []float32, scale float32) {
		u, s := u[:len(row)], s[:len(row)]
		r.Polar(u, s)
		tensor.NormalsInto(row, u, s, scale)
	}
	randPacked := func(rows, cols int) *tensor.Packed {
		scale := float32(1 / math.Sqrt(float64(rows)))
		return tensor.PackRows(rows, cols, func(_ int, row []float32) { draw(row, scale) })
	}
	ones := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	embed := tensor.NewMatrix(cfg.Vocab, h)
	embedScale := float32(1 / math.Sqrt(float64(cfg.Vocab)))
	for v := 0; v < cfg.Vocab; v++ {
		draw(embed.Row(v), embedScale)
	}
	m := &Model{
		cfg:   cfg,
		embed: embed,
		embedT: tensor.PackRows(h, cfg.Vocab, func(k int, row []float32) {
			for v := range row {
				row[v] = embed.At(v, k)
			}
		}),
		norm:      ones(h),
		ropeFreqs: tensor.RoPEFreqs(cfg.HeadDim),
		invSqrtHD: float32(1 / math.Sqrt(float64(cfg.HeadDim))),
	}
	for l := 0; l < cfg.Layers; l++ {
		m.layers = append(m.layers, layerWeights{
			attnNorm: ones(h),
			wq:       randPacked(h, h),
			wk:       randPacked(h, cfg.KVDim()),
			wv:       randPacked(h, cfg.KVDim()),
			wo:       randPacked(h, h),
			ffnNorm:  ones(h),
			wGate:    randPacked(h, cfg.FFNDim),
			wUp:      randPacked(h, cfg.FFNDim),
			wDown:    randPacked(cfg.FFNDim, h),
		})
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// CacheShape returns the KV cache shape this model requires.
func (m *Model) CacheShape() kvcache.Shape {
	return kvcache.Shape{Layers: m.cfg.Layers, KVHeads: m.cfg.KVHeads, HeadDim: m.cfg.HeadDim}
}

// StepResult reports one decode step's outputs.
type StepResult struct {
	Logits []float32
	// Hidden is the final pre-logit hidden state, used by the accuracy
	// package to measure representation drift under compression.
	Hidden []float32
}

// cachePath caches the interface assertions the decode hot paths probe on
// a cache, resolved once per step (once per lane or chunk of a fused step)
// instead of per layer: paged is the cache's pages (nil: the walk reads each
// KV head's Seq as one page).
type cachePath struct {
	cache    kvcache.Cache
	paged    kvcache.Paged
	observer kvcache.AttentionObserver
}

func pathOf(c kvcache.Cache) cachePath {
	cp := cachePath{cache: c}
	cp.paged, _ = c.(kvcache.Paged)
	cp.observer, _ = c.(kvcache.AttentionObserver)
	return cp
}

// attendOver accumulates each query head's attention output over layer l
// into its row: outs[r] for the query row qs[r]. limit < 0 means "every
// retained entry, per head" — the decode case, one row, where the cache
// (possibly with eviction, so Len may differ by head) holds exactly the
// attendable set. Chunked prefill passes consecutive rows of one chunk and
// the first row's causal bound instead: the cache already holds the whole
// chunk's K/V, and row r may only see entries 0..limit+r-1, which addresses
// by position and therefore requires a cache that retains every token
// (attendChunk refuses any other). Every cache has taken the step's K/V
// through its one AppendFlatN before this runs (attend per lane, attendChunk
// per chunk), which stores what one-token appends would, and a query's
// arithmetic does not depend on what shares its block, so bounded attention
// here equals full attention then.
//
// Every cache takes the one page walk in attend.go, in blocks of up to
// tensor.AttnBlockMax queries: a decode lane's query heads in ascending order
// across as many KV heads as fit (an even GQA group: a head's queries start
// on an even slot of the block), so one page visit serves every head; a
// chunk's rows × group per KV head in (row, head) order, ascending bounds;
// under Quest one query per block. A cache that is not kvcache.Paged
// (eviction, offline quantisation) is walked as one page per KV head, the
// head's Seq (seqPage), one KV head per block. Observers see each KV head's
// queries in ascending (row, head) order.
func (bw *BatchWorkspace) attendOver(qs, outs [][]float32, cp *cachePath, l, limit int) {
	cfg, blk := bw.m.cfg, bw.blk
	hd, group := cfg.HeadDim, cfg.GroupSize()
	for _, out := range outs {
		clear(out)
	}
	quest := limit < 0 && bw.questEngages(cp, l)
	span := 1 // KV heads per block
	if limit < 0 && !quest && group%2 == 0 && cp.paged != nil {
		span = max(1, tensor.AttnBlockMax/group)
	}
	for kh0 := 0; kh0 < cfg.KVHeads; kh0 += span {
		kh1 := min(kh0+span, cfg.KVHeads)
		v := pageView{cp.paged, l, kh0}
		if cp.paged == nil {
			bw.seq.show(cp.cache, l, kh0)
			v.paged = &bw.seq
		}
		blk.Reset()
		for kh := kh0; kh < kh1; kh++ {
			first := limit // the first row's bound; row r's is first+r
			if limit < 0 {
				first = cp.cache.Len(l, kh)
			}
			if kh > kh0 {
				blk.NextHead()
			}
			for x, nx := 0, len(qs)*group; x < nx; x++ {
				r, qh := x/group, kh*group+x%group
				q := blk.Add(first+r, outs[r][qh*hd:(qh+1)*hd])
				copy(q, qs[r][qh*hd:(qh+1)*hd])
				switch {
				case quest:
					bw.attendSparse(cp, &v, q)
				case blk.Len() == tensor.AttnBlockMax || (kh == kh1-1 && x == nx-1):
					bw.m.attendBlock(blk, cp, &v, nil)
				default:
					continue
				}
				blk.Reset()
			}
		}
	}
}
