package model

import (
	"fmt"
	"math"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/tensor"
)

// layerWeights holds one transformer block's parameters. Each projection
// weight is resident once, in tensor.Packed panel layout — the only layout
// the forward pass reads, for one stream (ForwardInto) and for the fused
// batched plane alike. Weights are immutable after New.
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
// Weights are immutable after New; the only mutable state is the default
// workspace used by the convenience entry points (Forward, Prefill,
// Generate), which therefore must not be called concurrently on one Model.
// Concurrent decoding is safe via per-goroutine workspaces: NewWorkspace +
// ForwardInto, or one fused BatchWorkspace + ForwardMixedInto.
type Model struct {
	cfg       Config
	embed     *tensor.Matrix // Vocab × Hidden, row-major for the token-row lookup
	embedT    *tensor.Packed // Hidden × Vocab: the tied LM head, logits = finalᵀ × embedᵀ
	layers    []layerWeights
	norm      []float32
	ropeFreqs []float64  // RoPE frequency schedule, precomputed once
	invSqrtHD float32    // 1/sqrt(HeadDim), the attention score scale
	ws        *Workspace // default workspace for the non-Into entry points

	// sparseTopK > 0 turns on Quest sparse decode attention: each head
	// scores the cache's per-page key summaries against its query and
	// attends only the topK most critical pages (tail always included).
	// Set before decoding starts; see SetSparseTopK.
	sparseTopK int
}

// Workspace holds every scratch buffer one decode stream needs, sized once
// from the model's Config. Reusing it makes steady-state ForwardInto
// allocation-free. A workspace belongs to exactly one decode stream at a
// time; independent sessions decoding in parallel each own one. The page
// walk's block scratch (blk) belongs to whoever walks: a standalone workspace
// owns one for ForwardInto, a BatchWorkspace's lanes share the batch's.
type Workspace struct {
	h       []float32   // residual stream (hidden)
	x       []float32   // normed activations (hidden)
	q       []float32   // query projection (hidden)
	k, v    []float32   // key/value projections (KVDim)
	kHeads  [][]float32 // per-head views into k (built once)
	vHeads  [][]float32 // per-head views into v (built once)
	qv      []float32   // one RoPE'd query head (HeadDim), Seq arm only
	attnOut []float32   // concatenated head outputs (hidden)
	proj    []float32   // output projection (hidden)
	gate    []float32   // FFN gate (FFNDim)
	up      []float32   // FFN up (FFNDim)
	down    []float32   // FFN down (hidden)
	final   []float32   // pre-logit hidden state (hidden)
	logits  []float32   // LM head output (Vocab)
	probs   []float32   // temperature-sampling scratch (Vocab)
	scores  []float32   // attention scores of the Seq arm, grown to the sequence length
	blk     *tensor.AttnBlock
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
	// They live on the workspace so fused lane-sharded attention updates
	// them without synchronization.
	sparseSel, sparseTot int64
	// probeRecall turns on the attention-mass recall probe: each sparse
	// attention additionally computes the dense softmax and accumulates
	// the fraction of true attention mass the selected pages captured.
	// Diagnostic only; never enable on a serving path.
	probeRecall bool
	recallMass  float64
	recallCnt   int64
}

// NewWorkspace allocates a standalone workspace sized for this model. The
// score buffers start at MaxSeq capacity so decode within the configured
// context window never reallocates them.
func (m *Model) NewWorkspace() *Workspace {
	ws := m.newLane()
	ws.blk = tensor.NewAttnBlock(m.cfg.HeadDim, m.cfg.MaxSeq)
	ws.scores = make([]float32, 0, m.cfg.MaxSeq)
	return ws
}

// newLane allocates a workspace without score scratch — a BatchWorkspace
// lane: the batch owns the page walk's, and the Seq arm's grows on first use.
func (m *Model) newLane() *Workspace {
	cfg := m.cfg
	h := cfg.Hidden()
	ws := &Workspace{
		h:       make([]float32, h),
		x:       make([]float32, h),
		q:       make([]float32, h),
		k:       make([]float32, cfg.KVDim()),
		v:       make([]float32, cfg.KVDim()),
		qv:      make([]float32, cfg.HeadDim),
		attnOut: make([]float32, h),
		proj:    make([]float32, h),
		gate:    make([]float32, cfg.FFNDim),
		up:      make([]float32, cfg.FFNDim),
		down:    make([]float32, h),
		final:   make([]float32, h),
		logits:  make([]float32, cfg.Vocab),
		probs:   make([]float32, cfg.Vocab),
		ropeSin: make([]float32, cfg.HeadDim/2),
		ropeCos: make([]float32, cfg.HeadDim/2),
	}
	ws.kHeads = make([][]float32, cfg.KVHeads)
	ws.vHeads = make([][]float32, cfg.KVHeads)
	for kh := 0; kh < cfg.KVHeads; kh++ {
		ws.kHeads[kh] = ws.k[kh*cfg.HeadDim : (kh+1)*cfg.HeadDim]
		ws.vHeads[kh] = ws.v[kh*cfg.HeadDim : (kh+1)*cfg.HeadDim]
	}
	return ws
}

// scoresFor returns a score buffer of length n, growing the workspace's
// backing array geometrically only when the sequence outgrows it.
func (ws *Workspace) scoresFor(n int) []float32 {
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
// with 1/sqrt(fanIn) so activations stay well-conditioned.
func New(cfg Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(seed)
	// Every weight is a finite normal draw times a finite scale — the
	// precondition for the GEMM tile not needing a zero-skip (tensor/gemm.go).
	randMat := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		scale := float32(1 / math.Sqrt(float64(rows)))
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64()) * scale
		}
		return m
	}
	randPacked := func(rows, cols int) *tensor.Packed { return tensor.Pack(randMat(rows, cols)) }
	ones := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	h := cfg.Hidden()
	m := &Model{
		cfg:       cfg,
		embed:     randMat(cfg.Vocab, h),
		norm:      ones(h),
		ropeFreqs: tensor.RoPEFreqs(cfg.HeadDim),
		invSqrtHD: float32(1 / math.Sqrt(float64(cfg.HeadDim))),
	}
	m.embedT = tensor.Pack(tensor.Transpose(m.embed))
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
	m.ws = m.NewWorkspace()
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
// append and read through cache's Append and Seq).
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

// Forward runs one token through the model at absolute position pos,
// appending its KV to cache and attending over everything the cache
// retains. It panics if token is out of vocabulary range.
//
// Forward uses the model's default workspace and copies the step outputs so
// callers may retain them — two allocations per step. The zero-allocation
// hot path is ForwardInto. Not safe for concurrent calls on one Model.
func (m *Model) Forward(token, pos int, cache kvcache.Cache) StepResult {
	sr := m.ForwardInto(m.ws, token, pos, cache)
	return StepResult{
		Logits: append([]float32(nil), sr.Logits...),
		Hidden: append([]float32(nil), sr.Hidden...),
	}
}

// ForwardInto is Forward with every intermediate and output buffer taken
// from the caller-owned workspace: in steady state it performs zero heap
// allocations. The returned StepResult aliases ws (Logits = ws scratch,
// Hidden likewise) and is only valid until the next ForwardInto on the same
// workspace; callers that retain results must copy them. Distinct
// workspaces (with distinct caches) may run concurrently on one Model.
//
// The arithmetic is operation-for-operation identical to the historical
// per-token slice path, so outputs are bit-identical regardless of the
// cache's memory layout (flat, paged, or per-token views).
func (m *Model) ForwardInto(ws *Workspace, token, pos int, cache kvcache.Cache) StepResult {
	if token < 0 || token >= m.cfg.Vocab {
		panic(fmt.Sprintf("model: token %d out of range", token))
	}
	if got, want := cache.Shape(), m.CacheShape(); got != want {
		panic(fmt.Sprintf("model: cache shape %+v does not match model %+v", got, want))
	}
	cp := pathOf(cache)
	h := ws.h
	copy(h, m.embed.Row(token))
	tensor.RoPESincosInto(ws.ropeSin, ws.ropeCos, m.ropeFreqs, pos)

	// Projections and the LM head are the batched plane's GEMM at one lane.
	for l := range m.layers {
		lw := &m.layers[l]
		tensor.RMSNormInto(ws.x, h, lw.attnNorm, 1e-5)
		lw.wq.MulVecInto(ws.q, ws.x)
		lw.wk.MulVecInto(ws.k, ws.x)
		lw.wv.MulVecInto(ws.v, ws.x)
		m.attendStep(ws, ws.blk, &cp, l)
		lw.wo.MulVecInto(ws.proj, ws.attnOut)
		tensor.AXPY(h, 1, ws.proj)

		// SiLU-gated FFN.
		tensor.RMSNormInto(ws.x, h, lw.ffnNorm, 1e-5)
		lw.wGate.MulVecInto(ws.gate, ws.x)
		lw.wUp.MulVecInto(ws.up, ws.x)
		tensor.SiLUMul(ws.gate, ws.up)
		lw.wDown.MulVecInto(ws.down, ws.gate)
		tensor.AXPY(h, 1, ws.down)
	}

	tensor.RMSNormInto(ws.final, h, m.norm, 1e-5)
	m.embedT.MulVecInto(ws.logits, ws.final)
	return StepResult{Logits: ws.logits, Hidden: ws.final}
}

// attendStep runs one layer's attention for one stream whose Q/K/V
// projections are already in the workspace: RoPE the K heads in place
// (using the step's cached rotation tables), append K/V to the cache, and
// accumulate each query head's attention output into ws.attnOut, with blk as
// the walk's scratch. It is the single attention implementation shared by the
// per-stream (ForwardInto) and fused batched (ForwardMixedInto) planes, which
// is what makes the two bit-identical by construction.
func (m *Model) attendStep(ws *Workspace, blk *tensor.AttnBlock, cp *cachePath, l int) {
	// Apply RoPE to the keys in place; ws.kHeads/ws.vHeads are prebuilt
	// per-head views into ws.k/ws.v. Caches copy on Append.
	for kh := 0; kh < m.cfg.KVHeads; kh++ {
		tensor.ApplyRoPECached(ws.kHeads[kh], ws.ropeSin, ws.ropeCos)
	}
	if cp.paged != nil {
		cp.paged.AppendFlatN(l, 1, ws.k, ws.v)
	} else {
		cp.cache.Append(l, ws.kHeads, ws.vHeads)
	}
	lane := [1]*Workspace{ws}
	m.attendOver(lane[:], blk, cp, l, -1)
}

// attendOver accumulates each query head's attention output into its lane's
// attnOut over layer l. limit < 0 means "every retained entry, per head" —
// the decode case, one lane, where the cache (possibly with eviction, so Len
// may differ by head) holds exactly the attendable set. Chunked prefill
// passes consecutive rows of one chunk and the first row's causal bound
// instead: the cache already holds the whole chunk's K/V, and row r may only
// see entries 0..limit+r-1, which addresses by position and therefore
// requires a cache that retains every token (Full, PagedKV). The K/V for the
// attended prefix are bit-identical to what a token-at-a-time pass would have
// cached, and a query's arithmetic does not depend on what shares its block,
// so bounded attention here equals full attention then.
//
// Caches with a regular layout (kvcache.Paged: Full's flat buffer, PagedKV's
// pages in any codec) all take the one page walk in attend.go, per KV head in
// blocks of up to tensor.AttnBlockMax queries in (row, head) order: ascending
// bounds, and within a decode lane the ascending head order observers see.
// Caches with irregular retained sets (eviction, offline quantisation) take
// attendSeq.
func (m *Model) attendOver(lanes []*Workspace, blk *tensor.AttnBlock, cp *cachePath, l, limit int) {
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
	for kh := 0; kh < cfg.KVHeads; kh++ {
		first := limit // the first lane's bound; lane r's is first+r
		if limit < 0 {
			first = cp.cache.Len(l, kh)
		}
		v := pageView{cp.paged, l, kh}
		quest := limit < 0 && m.questEngages(lanes[0], cp, &v)
		blk.Reset()
		for x, nx := 0, len(lanes)*group; x < nx; x++ {
			ws, qh := lanes[x/group], kh*group+x%group
			q := blk.Add(first+x/group, ws.attnOut[qh*hd:(qh+1)*hd])
			copy(q, ws.q[qh*hd:(qh+1)*hd])
			tensor.ApplyRoPECached(q, ws.ropeSin, ws.ropeCos)
			switch {
			case quest:
				m.attendSparse(ws, blk, cp, &v, q)
			case blk.Len() == tensor.AttnBlockMax || x == nx-1:
				m.attendBlock(blk, cp, &v, nil)
			default:
				continue
			}
			blk.Reset()
		}
	}
}

// attendSeq is the generic attention arm, and the scalar reference the page
// walk is pinned against: per query head, tensor.Dot and tensor.AXPY over
// cache.Seq's per-token views, cut to the first limit+r (limit < 0: all).
func (m *Model) attendSeq(ws *Workspace, cp *cachePath, l, limit, r int) {
	hd, group := m.cfg.HeadDim, m.cfg.GroupSize()
	for qh := 0; qh < m.cfg.Heads; qh++ {
		copy(ws.qv, ws.q[qh*hd:(qh+1)*hd])
		tensor.ApplyRoPECached(ws.qv, ws.ropeSin, ws.ropeCos)
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
			scores[i] = tensor.Dot(ws.qv, kv) * m.invSqrtHD
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

// Prefill runs every prompt token through the model, filling the cache, and
// returns the last step's result (copied, safe to retain). It panics on an
// empty prompt.
func (m *Model) Prefill(prompt []int, cache kvcache.Cache) StepResult {
	sr := m.PrefillInto(m.ws, prompt, cache)
	return StepResult{
		Logits: append([]float32(nil), sr.Logits...),
		Hidden: append([]float32(nil), sr.Hidden...),
	}
}

// PrefillInto is Prefill over a caller-owned workspace; the result aliases
// ws exactly like ForwardInto.
func (m *Model) PrefillInto(ws *Workspace, prompt []int, cache kvcache.Cache) StepResult {
	if len(prompt) == 0 {
		panic("model: empty prompt")
	}
	var res StepResult
	for i, tok := range prompt {
		res = m.ForwardInto(ws, tok, i, cache)
	}
	return res
}

// GenerateOptions controls Generate.
type GenerateOptions struct {
	MaxNewTokens int
	Temperature  float64 // <= 0 means greedy
	EOS          int     // token id that stops generation; negative disables
	Seed         uint64  // sampling seed (ignored for greedy)
}

// GenerateResult reports the produced continuation.
type GenerateResult struct {
	Tokens []int
	// Hiddens holds the final hidden state at every generated position.
	Hiddens [][]float32
}

// Generate greedy- or temperature-samples a continuation after the prompt.
// It runs on the model's default workspace: decode steps allocate only the
// per-step Hidden copy the result must retain (plus result-slice growth).
// The temperature path reuses one probs scratch buffer across steps instead
// of copying the logits every step.
func (m *Model) Generate(prompt []int, cache kvcache.Cache, opt GenerateOptions) GenerateResult {
	ws := m.ws
	res := m.PrefillInto(ws, prompt, cache)
	r := rng.New(opt.Seed)
	out := GenerateResult{
		Tokens:  make([]int, 0, opt.MaxNewTokens),
		Hiddens: make([][]float32, 0, opt.MaxNewTokens),
	}
	pos := len(prompt)
	logits := res.Logits
	hidden := res.Hidden
	for step := 0; step < opt.MaxNewTokens; step++ {
		var next int
		if opt.Temperature <= 0 {
			next = tensor.Argmax(logits)
		} else {
			copy(ws.probs, logits)
			tensor.SoftmaxTemp(ws.probs, opt.Temperature)
			next = sampleCategorical(r, ws.probs)
		}
		out.Tokens = append(out.Tokens, next)
		out.Hiddens = append(out.Hiddens, append([]float32(nil), hidden...))
		if opt.EOS >= 0 && next == opt.EOS {
			break
		}
		sr := m.ForwardInto(ws, next, pos, cache)
		logits, hidden = sr.Logits, sr.Hidden
		pos++
	}
	return out
}

// sampleCategorical draws from the categorical distribution in probs. It
// consumes the (scratch) buffer in place: probs is read-only here and may be
// overwritten by the caller on the next step.
func sampleCategorical(r *rng.RNG, probs []float32) int {
	u := float32(r.Float64())
	var acc float32
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}
