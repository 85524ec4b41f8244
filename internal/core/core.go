// Package core drives the model's one forward pass for its two kinds of
// caller. Offline, one greedy Session over a model and a compression method's
// cache is what every offline caller steps — the rethinkkv facade's Pipeline,
// the accuracy evaluator and the length study alike. Serving, its step plane
// (step.go) advances the continuous-batching scheduler's sessions and prompt
// chunks in one fused pass per iteration.
package core

import (
	"context"
	"fmt"
	"sync"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
)

// Report summarises cache-level effects after a run. Session.Report leaves
// Method for the caller that chose the cache to fill.
type Report struct {
	Method           string
	TokensProcessed  int
	CacheBytes       int64
	FP16Bytes        int64
	CompressionRatio float64
	RetainedTokens   int // layer-0 head-0 retained entries
}

// Session is one greedy decode stream: a prefilled cache and a private
// one-lane batch workspace, stepped through the model's one forward pass
// (model.ForwardMixedInto) at a single decode lane. Sessions let callers
// stream and cancel mid-generation. Because every session owns its workspace
// and cache (model weights are immutable), independent sessions may decode
// concurrently.
type Session struct {
	m  *model.Model
	bw *model.BatchWorkspace
	// The lane's ForwardMixedInto arguments, kept here so a step allocates
	// nothing: the pending token, its position and the cache.
	tok, pos [1]int
	cache    [1]kvcache.Cache
	last     model.StepResult
}

// NewSession prefills prompt into cache one token at a time, positions
// continuing from what the cache already holds, and returns the decoding state
// positioned at the first output token. Token at a time, not in chunks: a
// chunk attends over the cache only once the whole chunk is in, and an
// evicting or offline-quantizing cache changes what it holds as tokens arrive.
// A cache that wants the prefill-end signal (compress.Prefiller) gets it.
func NewSession(m *model.Model, cache kvcache.Cache, prompt []int) (*Session, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("core: empty prompt")
	}
	s := &Session{m: m, bw: m.NewBatchWorkspace(1)}
	s.pos[0] = cache.TotalAppended()
	s.cache[0] = cache
	for _, tok := range prompt {
		s.step(tok)
	}
	if pf, ok := cache.(compress.Prefiller); ok {
		pf.FinishPrefill()
	}
	return s, nil
}

// step forwards tok at the session's position.
func (s *Session) step(tok int) {
	s.tok[0] = tok
	res, _ := s.m.ForwardMixedInto(s.bw, s.tok[:], s.pos[:], s.cache[:], nil)
	s.last = res[0]
	s.pos[0]++
}

// Next greedily decodes one token and advances the session: the token the
// last step's logits choose, fed back in. Steady-state decode allocates
// nothing.
func (s *Session) Next() int {
	next := tensor.Argmax(s.last.Logits)
	s.step(next)
	return next
}

// Decode returns the next n tokens Next decodes.
func (s *Session) Decode(n int) []int {
	out := make([]int, max(n, 0))
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// Hidden returns the last step's final hidden state. It aliases the session's
// workspace until the next step; a caller that keeps it copies it.
func (s *Session) Hidden() []float32 { return s.last.Hidden }

// Batch exposes the session's one-lane batch workspace, for its diagnostics
// (sparse page tallies, the recall probe).
func (s *Session) Batch() *model.BatchWorkspace { return s.bw }

// Pos returns the number of tokens processed so far (prompt + emitted).
func (s *Session) Pos() int { return s.pos[0] }

// Report summarises the session's cache-level effects so far.
func (s *Session) Report() Report {
	c := s.cache[0]
	rep := Report{
		TokensProcessed: s.Pos(),
		CacheBytes:      c.MemoryBytes(),
		FP16Bytes:       kvcache.FP16Bytes(c.Shape(), s.Pos()),
		RetainedTokens:  c.Len(0, 0),
	}
	if rep.CacheBytes > 0 {
		rep.CompressionRatio = float64(rep.FP16Bytes) / float64(rep.CacheBytes)
	}
	return rep
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
