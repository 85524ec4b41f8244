package main

// adapter.go holds every call the benchmark makes into the program. No other
// file of this package imports rethinkkv/..., so a later change to the
// program's API is repaired here and nowhere else. The surface is kept to the
// functions ROADMAP.md names as survivors of the plane collapse:
//
//	model.New, model.Small, (*Model).ForwardMixedInto, NewBatchWorkspace,
//	    (*BatchWorkspace).SetWorkers, CacheShape
//	sched.New, sched.Config, sched.Request,
//	    Engine.Submit / Drain / Stats / Outcomes / View / Close
//	core.NewWorkspacePool, StepMixedStatsInto, NewPrefilledStepSession
//	kvcache.NewPagedKV, NewPagedKVQuant, AppendFlatN, ClonePrefix,
//	    PageBitsFP32, PageBitsQuant, ScaledPageBudget
//	tensor.NewMatrix, Transpose, MatTMatTransInto, MatVecInto

import (
	"context"
	"time"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/tensor"
)

// Aliases, so the rest of the package names the program's records without
// importing its packages. Token streams are handed through unconverted: a
// forwarding goroutine per stream would add latency the program does not have.
type (
	Token       = sched.Token
	EngineStats = sched.Stats
	EngineView  = sched.View
	Outcome     = serving.Outcome
)

// ModelDims is the shape the computed (not measured) model metrics need.
type ModelDims struct{ Layers, Hidden, KVDim, FFN, Vocab int }

// Model is the serving-shaped small-llama replica every workload runs.
type Model struct{ m *model.Model }

// modelSeed fixes the weights: every run of every workload serves the same
// model, so the oracle and the timed engine agree by construction.
const modelSeed = 20250927

// NewModel builds small-llama with the fixed weight seed.
func NewModel() *Model { return &Model{m: model.New(model.Small(), modelSeed)} }

// Dims reports the model's shape.
func (m *Model) Dims() ModelDims { return ModelShape() }

// ModelShape is small-llama's shape, without building its weights.
func ModelShape() ModelDims {
	c := model.Small()
	return ModelDims{Layers: c.Layers, Hidden: c.Hidden(), KVDim: c.KVDim(), FFN: c.FFNDim, Vocab: c.Vocab}
}

// EngineConfig is the part of sched.Config the benchmark sets; everything
// else stays at the engine's defaults (FCFS, no queue bound, no deadlines).
type EngineConfig struct {
	MaxBatch     int
	PageTokens   int
	PrefillChunk int
	TokenBudget  int
	KVPages      int // fp32-denominated page budget, 0 = unbounded
	KVQuantBits  int // 0 (fp32), 8 or 4
	SharedPrefix []int
	Epoch        time.Time      // clock origin shared with the client
	StepHook     func(step int) // traced runs only
}

// Req is one request as the load generator sends it. Arrival is seconds
// since Epoch: the due time in an open loop, the submit time in a closed one.
type Req struct {
	ID      int
	Prompt  []int
	MaxNew  int
	Arrival float64
}

// Engine is one live sched engine.
type Engine struct{ e *sched.Engine }

// NewEngine starts an engine over the model (prefilling any shared prefix).
func NewEngine(m *Model, cfg EngineConfig) (*Engine, error) {
	e, err := sched.New(m.m, sched.Config{
		MaxBatch:     cfg.MaxBatch,
		PageTokens:   cfg.PageTokens,
		PrefillChunk: cfg.PrefillChunk,
		TokenBudget:  cfg.TokenBudget,
		KVPages:      cfg.KVPages,
		KVQuantBits:  cfg.KVQuantBits,
		SharedPrefix: cfg.SharedPrefix,
		Epoch:        cfg.Epoch,
		StepHook:     cfg.StepHook,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// Submit enqueues one request and returns its token stream.
func (e *Engine) Submit(ctx context.Context, r Req) (<-chan Token, error) {
	return e.e.Submit(ctx, sched.Request{ID: r.ID, Prompt: r.Prompt, MaxNew: r.MaxNew, Arrival: r.Arrival})
}

// Drain waits until everything submitted so far has retired.
func (e *Engine) Drain(ctx context.Context) error { return e.e.Drain(ctx) }

// Stats returns the engine-lifetime counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Outcomes returns the per-request engine-side records, sorted by ID.
func (e *Engine) Outcomes() []Outcome { return e.e.Outcomes() }

// View returns the router-visible snapshot (queued, running, pages used).
func (e *Engine) View() EngineView { return e.e.View() }

// Close stops the engine loop and waits for it to exit.
func (e *Engine) Close() { e.e.Close() }

// KVPageBytes is the size of one K/V page across all layers, computed from
// tensor sizes (not measured): fp32 for bits 0, codes + fp16 params otherwise.
func (m *Model) KVPageBytes(pageTokens, bits int) float64 {
	shape := m.m.CacheShape()
	perLayer := kvcache.PageBitsFP32(shape, pageTokens)
	if bits != 0 {
		perLayer = kvcache.PageBitsQuant(shape, pageTokens, bits)
	}
	return float64(perLayer) / 8 * float64(shape.Layers)
}

// ScaledPageBudget converts an fp32-denominated page budget into the page
// count the engine enforces at the given code width.
func (m *Model) ScaledPageBudget(kvPages, pageTokens, bits int) int {
	return kvcache.ScaledPageBudget(kvPages, m.m.CacheShape(), pageTokens, bits)
}

// ---- layer probes: direct calls into model / core / kvcache / tensor ----

// KVCache is one request-sized paged cache, for the probes.
type KVCache struct{ c *kvcache.PagedKV }

// NewKVCache allocates an empty unbounded paged cache (bits 0, 8 or 4).
func (m *Model) NewKVCache(pageTokens, bits int) *KVCache {
	if bits == 0 {
		return &KVCache{c: kvcache.NewPagedKV(m.m.CacheShape(), pageTokens)}
	}
	return &KVCache{c: kvcache.NewPagedKVQuant(m.m.CacheShape(), pageTokens, 0, bits)}
}

// AppendSpan appends n tokens' K/V (token-major, n*KVDim floats each) to
// every layer — what one decode step (n=1) or prefill chunk (n=chunk) appends.
func (c *KVCache) AppendSpan(layers, n int, k, v []float32) {
	for l := 0; l < layers; l++ {
		c.c.AppendFlatN(l, n, k, v)
	}
}

// Clone is the copy-on-write prefix clone a shared-prefix hit pays.
func (c *KVCache) Clone() *KVCache { return &KVCache{c: c.c.ClonePrefix()} }

// ChunkSpec is one prefill chunk of a mixed pass, for the probes.
type ChunkSpec struct {
	Tokens []int
	Cache  *KVCache
}

// ModelStepper drives (*Model).ForwardMixedInto on one batch workspace, with
// the shard width the engine's step plane uses.
type ModelStepper struct {
	m         *model.Model
	bw        *model.BatchWorkspace
	positions []int
	caches    []kvcache.Cache
	chunks    []model.Chunk
}

// NewModelStepper allocates the workspace.
func (m *Model) NewModelStepper(workers int) *ModelStepper {
	bw := m.m.NewBatchWorkspace(0)
	bw.SetWorkers(workers)
	return &ModelStepper{m: m.m, bw: bw}
}

// Step runs one fused pass: tokens[i] decodes against lanes[i], and each
// chunk prefills into its own cache (its last position's logits requested,
// as the scheduler does for a final chunk).
func (s *ModelStepper) Step(tokens []int, lanes []*KVCache, chunks []ChunkSpec) {
	s.positions = s.positions[:0]
	s.caches = s.caches[:0]
	for _, c := range lanes {
		s.positions = append(s.positions, c.c.TotalAppended())
		s.caches = append(s.caches, c.c)
	}
	s.chunks = s.chunks[:0]
	for _, ch := range chunks {
		s.chunks = append(s.chunks, model.Chunk{Tokens: ch.Tokens, Pos: ch.Cache.c.TotalAppended(), Cache: ch.Cache.c, NeedLogits: true})
	}
	s.m.ForwardMixedInto(s.bw, tokens, s.positions, s.caches, s.chunks)
}

// CoreStepper drives core.StepMixedStatsInto — the scheduler's one step entry
// point: pool get/put, the fused pass and the argmax per lane.
type CoreStepper struct {
	pool     *core.WorkspacePool
	sessions []*core.StepSession
	toks     []int
	chunks   []core.PrefillChunk
	nexts    []int
	stats    core.StepStats
}

// NewCoreStepper wraps the lanes' caches into decode sessions.
func (m *Model) NewCoreStepper(lanes []*KVCache) *CoreStepper {
	s := &CoreStepper{pool: core.NewWorkspacePool(m.m), toks: make([]int, len(lanes))}
	for i, c := range lanes {
		s.sessions = append(s.sessions, core.NewPrefilledStepSession(m.m, c.c, i+1))
	}
	return s
}

// Step advances every session one token and prefills the chunks.
func (s *CoreStepper) Step(chunks []ChunkSpec) {
	s.chunks = s.chunks[:0]
	for _, ch := range chunks {
		s.chunks = append(s.chunks, core.PrefillChunk{Tokens: ch.Tokens, Cache: ch.Cache.c, Final: true})
	}
	if cap(s.nexts) < len(chunks) {
		s.nexts = make([]int, len(chunks))
	}
	core.StepMixedStatsInto(s.pool, s.sessions, s.toks, s.chunks, s.nexts[:len(chunks)], &s.stats)
}

// Gemm is one weight matrix (rows×cols, with its transpose) and a batch of
// activation rows, for the tensor probes.
type Gemm struct {
	m, mT   *tensor.Matrix
	xs, dst [][]float32
	vec     []float32
}

// NewGemm fills a rows×cols weight and r activation rows with fill(i).
func NewGemm(r, rows, cols int, fill func(i int) float32) *Gemm {
	g := &Gemm{m: tensor.NewMatrix(rows, cols)}
	for i := range g.m.Data {
		g.m.Data[i] = fill(i)
	}
	g.mT = tensor.Transpose(g.m)
	for b := 0; b < r; b++ {
		x := make([]float32, rows)
		for i := range x {
			x[i] = fill(b*rows+i) + 1 // never exactly zero: the fast row-major lane path
		}
		g.xs = append(g.xs, x)
		g.dst = append(g.dst, make([]float32, cols))
	}
	g.vec = make([]float32, rows)
	return g
}

// MatTMat is the batched projection kernel: dst[b] = xs[b]ᵀ × m.
func (g *Gemm) MatTMat() { tensor.MatTMatTransInto(g.dst, g.xs, g.m, g.mT) }

// MatVec is the row-major GEMV: vec = m × dst[0] (rows×cols times cols).
func (g *Gemm) MatVec() { tensor.MatVecInto(g.vec, g.m, g.dst[0]) }
