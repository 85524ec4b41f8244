package model

import (
	"math"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/tensor"
)

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

// workspace holds every scratch buffer one lane of a BatchWorkspace needs,
// sized once from the model's Config: a decode stream's token, or one
// position of a prefill chunk. The page walk's block scratch belongs to the
// batch, not to a lane.
type workspace struct {
	h       []float32 // residual stream (hidden)
	x       []float32 // normed activations (hidden)
	q       []float32 // query projection (hidden), RoPE'd in place
	k, v    []float32 // key/value projections (KVDim), k RoPE'd in place
	attnOut []float32 // concatenated head outputs (hidden)
	proj    []float32 // output projection (hidden)
	gate    []float32 // FFN gate (FFNDim)
	up      []float32 // FFN up (FFNDim)
	down    []float32 // FFN down (hidden)
	final   []float32 // pre-logit hidden state (hidden)
	logits  []float32 // LM head output (Vocab)
	scores  []float32 // attention scores of the Seq arm, grown to the sequence length
	// ropeSin/ropeCos hold the step's rotation coefficients, filled once
	// per decode position and reused by every head of every layer.
	ropeSin []float32
	ropeCos []float32

	// Sparse-attention scratch: per-page criticality scores (consumed
	// destructively by selection) and the selected page indices, grown
	// geometrically so steady-state sparse decode stays allocation-free.
	pageScores []float64
	pageSel    []int32
	// sparseSel/sparseTot count pages selected vs pages resident across
	// every (layer, head) sparse attention since the last TakeSparseStats.
	sparseSel, sparseTot int64
	// probeRecall turns on the attention-mass recall probe: each sparse
	// attention additionally computes the dense softmax and accumulates
	// the fraction of true attention mass the selected pages captured.
	// Diagnostic only; never enable on a serving path.
	probeRecall bool
	recallMass  float64
	recallCnt   int64
}

// newLane allocates one lane's workspace. The Seq arm's score buffer grows
// on first use.
func (m *Model) newLane() *workspace {
	cfg := m.cfg
	h := cfg.Hidden()
	ws := &workspace{
		h:       make([]float32, h),
		x:       make([]float32, h),
		q:       make([]float32, h),
		k:       make([]float32, cfg.KVDim()),
		v:       make([]float32, cfg.KVDim()),
		attnOut: make([]float32, h),
		proj:    make([]float32, h),
		gate:    make([]float32, cfg.FFNDim),
		up:      make([]float32, cfg.FFNDim),
		down:    make([]float32, h),
		final:   make([]float32, h),
		logits:  make([]float32, cfg.Vocab),
		ropeSin: make([]float32, cfg.HeadDim/2),
		ropeCos: make([]float32, cfg.HeadDim/2),
	}
	return ws
}

// scoresFor returns a score buffer of length n, growing the workspace's
// backing array geometrically only when the sequence outgrows it.
func (ws *workspace) scoresFor(n int) []float32 {
	if cap(ws.scores) < n {
		newCap := 2 * cap(ws.scores)
		if newCap < n {
			newCap = n
		}
		ws.scores = make([]float32, 0, newCap)
	}
	return ws.scores[:n]
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
// a cache, resolved once per step (or once per lane per fused step)
// instead of per layer: paged is the page-walk fast path (nil sends every
// read through cache's Seq).
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

// attendLane accumulates one decode lane's attention output over layer l,
// its token's K/V already appended.
func (m *Model) attendLane(ws *workspace, blk *tensor.AttnBlock, cp *cachePath, l int) {
	lane := [1]*workspace{ws}
	m.attendOver(lane[:], blk, cp, l, -1)
}

// attendOver accumulates each query head's attention output into its lane's
// attnOut over layer l. limit < 0 means "every retained entry, per head" —
// the decode case, one lane, where the cache (possibly with eviction, so Len
// may differ by head) holds exactly the attendable set. Chunked prefill
// passes consecutive rows of one chunk and the first row's causal bound
// instead: the cache already holds the whole chunk's K/V, and row r may only
// see entries 0..limit+r-1, which addresses by position and therefore
// requires a cache that retains every token (Full, PagedKV). Every cache has
// taken the step's K/V through its one AppendFlatN before this runs (attend
// per lane, attendChunk per chunk), which stores what one-token appends
// would, and a query's arithmetic does not depend on what shares its block,
// so bounded attention here equals full attention then.
//
// Caches with a regular layout (kvcache.Paged: PagedKV's pages in any codec,
// Full's fp32 pages) all take the one page walk in attend.go, in blocks of
// up to tensor.AttnBlockMax queries: a decode lane's query heads in ascending
// order across as many KV heads as fit (an even GQA group: a head's queries
// start on an even slot of the block), so one page visit serves every head;
// a chunk's rows × group per KV head in (row, head) order, ascending bounds;
// under Quest one query per block. Observers see the ascending head order.
// Caches with irregular retained sets (eviction, offline quantisation) take
// attendSeq.
func (m *Model) attendOver(lanes []*workspace, blk *tensor.AttnBlock, cp *cachePath, l, limit int) {
	cfg := m.cfg
	hd, group := cfg.HeadDim, cfg.GroupSize()
	for _, ws := range lanes {
		clear(ws.attnOut)
	}
	if cp.paged == nil {
		for r, ws := range lanes {
			m.attendSeq(ws, cp, l, limit, r)
		}
		return
	}
	quest := limit < 0 && m.questEngages(lanes[0], cp, l)
	span := 1 // KV heads per block
	if limit < 0 && !quest && group%2 == 0 {
		span = max(1, tensor.AttnBlockMax/group)
	}
	for kh0 := 0; kh0 < cfg.KVHeads; kh0 += span {
		kh1 := min(kh0+span, cfg.KVHeads)
		v := pageView{cp.paged, l, kh0}
		blk.Reset()
		for kh := kh0; kh < kh1; kh++ {
			first := limit // the first lane's bound; lane r's is first+r
			if limit < 0 {
				first = cp.cache.Len(l, kh)
			}
			if kh > kh0 {
				blk.NextHead()
			}
			for x, nx := 0, len(lanes)*group; x < nx; x++ {
				ws, qh := lanes[x/group], kh*group+x%group
				q := blk.Add(first+x/group, ws.attnOut[qh*hd:(qh+1)*hd])
				copy(q, ws.q[qh*hd:(qh+1)*hd])
				switch {
				case quest:
					m.attendSparse(ws, blk, cp, &v, q)
				case blk.Len() == tensor.AttnBlockMax || (kh == kh1-1 && x == nx-1):
					m.attendBlock(blk, cp, &v, nil)
				default:
					continue
				}
				blk.Reset()
			}
		}
	}
}

// attendSeq is the generic attention arm, and the scalar reference the page
// walk is pinned against: per query head, tensor.Dot and tensor.AXPY over
// cache.Seq's per-token views, cut to the first limit+r (limit < 0: all).
func (m *Model) attendSeq(ws *workspace, cp *cachePath, l, limit, r int) {
	hd, group := m.cfg.HeadDim, m.cfg.GroupSize()
	for qh := 0; qh < m.cfg.Heads; qh++ {
		q := ws.q[qh*hd : (qh+1)*hd]
		kh := qh / group
		out := ws.attnOut[qh*hd : (qh+1)*hd]
		n := limit + r
		if limit < 0 {
			n = cp.cache.Len(l, kh)
		}
		scores := ws.scoresFor(n)
		keys, vals := cp.cache.Seq(l, kh)
		keys, vals = keys[:n], vals[:n]
		for i, kv := range keys {
			scores[i] = tensor.Dot(q, kv) * m.invSqrtHD
		}
		tensor.Softmax(scores)
		if cp.observer != nil {
			cp.observer.ObserveAttention(l, kh, scores)
		}
		for i, w := range scores {
			tensor.AXPY(out, w, vals[i])
		}
	}
}
