// Package core is the library's top-level facade: it wires a runnable tiny
// model, a compression method's cache, and the analytical cost model into a
// single Pipeline that callers (examples, experiment runners, downstream
// users) drive with a few calls.
package core

import (
	"context"
	"fmt"
	"sync"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/tensor"
)

// Pipeline runs real generation under a compression method and reports the
// cache-level effects. A pipeline is reusable: each generation pass runs on
// a fresh cache built by the method's factory, so Run and NewSession may be
// called any number of times.
type Pipeline struct {
	Model  *model.Model
	Method compress.Method
	last   kvcache.Cache
}

// NewPipeline builds a pipeline over the tiny model with the named method's
// tiny-scale cache. Seed fixes the model weights.
func NewPipeline(methodName string, seed uint64) (*Pipeline, error) {
	m := model.New(model.Tiny(), seed)
	method, err := compress.Get(methodName)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Model: m, Method: method, last: method.NewCache(m.CacheShape())}, nil
}

// Cache exposes the most recent generation's cache for inspection.
func (p *Pipeline) Cache() kvcache.Cache { return p.last }

// Report summarises cache-level effects after a run.
type Report struct {
	Method           string
	TokensProcessed  int
	CacheBytes       int64
	FP16Bytes        int64
	CompressionRatio float64
	RetainedTokens   int // layer-0 head-0 retained entries
}

// Session is one generation pass: a prefilled fresh cache, a private scratch
// workspace, and the decode state needed to emit tokens one at a time.
// Sessions let callers stream and cancel mid-generation; the parent pipeline
// stays reusable. Because every session owns its workspace and cache (model
// weights are immutable), independent sessions may decode concurrently.
type Session struct {
	p      *Pipeline
	cache  kvcache.Cache
	ws     *model.Workspace
	pos    int
	logits []float32
}

// NewSession prefills the prompt on a fresh cache and returns the decoding
// state positioned at the first output token.
func (p *Pipeline) NewSession(prompt []int) (*Session, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("core: empty prompt")
	}
	cache := p.Method.NewCache(p.Model.CacheShape())
	ws := p.Model.NewWorkspace()
	res := p.Model.PrefillInto(ws, prompt, cache)
	if pf, ok := cache.(compress.Prefiller); ok {
		pf.FinishPrefill()
	}
	p.last = cache
	return &Session{p: p, cache: cache, ws: ws, pos: len(prompt), logits: res.Logits}, nil
}

// Next greedily decodes one token and advances the session. Steady-state
// decode allocates nothing: the step runs entirely inside the session's
// workspace and s.logits aliases its logit buffer.
func (s *Session) Next() int {
	next := tensor.Argmax(s.logits)
	sr := s.p.Model.ForwardInto(s.ws, next, s.pos, s.cache)
	s.logits = sr.Logits
	s.pos++
	return next
}

// Pos returns the number of tokens processed so far (prompt + emitted).
func (s *Session) Pos() int { return s.pos }

// Cache exposes the session's cache for inspection.
func (s *Session) Cache() kvcache.Cache { return s.cache }

// Report summarises the session's cache-level effects so far.
func (s *Session) Report() Report {
	rep := Report{
		Method:          s.p.Method.Name,
		TokensProcessed: s.pos,
		CacheBytes:      s.cache.MemoryBytes(),
		FP16Bytes:       kvcache.FP16Bytes(s.cache.Shape(), s.pos),
		RetainedTokens:  s.cache.Len(0, 0),
	}
	if rep.CacheBytes > 0 {
		rep.CompressionRatio = float64(rep.FP16Bytes) / float64(rep.CacheBytes)
	}
	return rep
}

// Run prefills the prompt, greedily decodes maxNew tokens, and reports.
// Each call runs on a fresh cache, so the pipeline may be reused.
func (p *Pipeline) Run(prompt []int, maxNew int) ([]int, Report, error) {
	s, err := p.NewSession(prompt)
	if err != nil {
		return nil, Report{}, err
	}
	out := make([]int, 0, maxNew)
	for i := 0; i < maxNew; i++ {
		out = append(out, s.Next())
	}
	return out, s.Report(), nil
}

// NewSessions creates (and prefills) one session per prompt, sequentially.
// It checks ctx between prompts so a cancelled batch does not pay the
// remaining prefill cost.
func (p *Pipeline) NewSessions(ctx context.Context, prompts [][]int) ([]*Session, error) {
	sessions := make([]*Session, len(prompts))
	for i, prompt := range prompts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := p.NewSession(prompt)
		if err != nil {
			return nil, fmt.Errorf("core: prompt %d: %w", i, err)
		}
		sessions[i] = s
	}
	return sessions, nil
}

// DecodeSessions greedily decodes up to maxNew tokens on every session in
// parallel goroutines, returning index-aligned token streams and reports.
// Sessions must be distinct (each owns its cache and workspace); decoding
// stops early when ctx is cancelled.
func DecodeSessions(ctx context.Context, sessions []*Session, maxNew int) ([][]int, []Report) {
	outs := make([][]int, len(sessions))
	reports := make([]Report, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			toks := make([]int, 0, maxNew)
			for j := 0; j < maxNew; j++ {
				if ctx.Err() != nil {
					break
				}
				toks = append(toks, s.Next())
			}
			outs[i] = toks
			reports[i] = s.Report()
		}(i, s)
	}
	wg.Wait()
	return outs, reports
}

// System bundles the full-scale analytical view for one deployment choice.
type System struct {
	Est *perf.Estimator
}

// NewSystem builds the cost-model view for (hardware, model, engine,
// method, TP) by name.
func NewSystem(hwName, modelName, engineName, methodName string, tp int) (*System, error) {
	hw, ok := gpu.ByName(hwName)
	if !ok {
		return nil, fmt.Errorf("core: unknown hardware %q", hwName)
	}
	cfg, ok := model.ByName(modelName)
	if !ok {
		return nil, fmt.Errorf("core: unknown model %q", modelName)
	}
	eng, err := engine.ByName(engineName)
	if err != nil {
		return nil, err
	}
	method, err := compress.Get(methodName)
	if err != nil {
		return nil, err
	}
	est, err := perf.New(hw, cfg, eng, method, tp)
	if err != nil {
		return nil, err
	}
	return &System{Est: est}, nil
}
