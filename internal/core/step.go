package core

import (
	"runtime"
	"sync"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
)

// This file is the multi-session step plane the continuous-batching
// scheduler (internal/sched) drives: sessions that keep no workspace of
// their own, a pool of fused step batches, and one step entry point,
// StepMixedStatsInto, that advances any set of sessions one token each and
// any set of prompt chunks in a single fused pass. Unlike Session (one
// workspace per stream, logits carried between steps), a StepSession
// carries only its cache, position and pre-computed next token, so one
// pooled StepBatch serves an unbounded population of live requests.
//
// A step reports what it decided, not what it was fed: a session's step
// appends the K/V of its pending token and returns the token the resulting
// logits choose, and a Final chunk returns the token its last position
// chooses. Every token is therefore known to the caller in the step that
// computed it, and the cache of a stream that has produced n tokens holds
// its prompt and the first n-1 of them — the n-th is only fed if an
// (n+1)-th is wanted.
//
// Every step — whatever the batch size, with or without chunks — is one
// model.ForwardMixedInto: one weight-stationary pass loading every weight
// matrix once instead of once per session, with per-session attention
// against each session's own cache. It borrows one pooled StepBatch per
// step: one pool round-trip per decode iteration.

// WorkspacePool hands out fused step batches to decode loops over one
// model. GetBatch allocates on demand, so the pool's steady-state size is
// the number of concurrent step loops, not the number of live sessions.
type WorkspacePool struct {
	m         *model.Model
	mu        sync.Mutex
	freeBatch []*StepBatch
}

// NewWorkspacePool builds an empty pool over the model.
func NewWorkspacePool(m *model.Model) *WorkspacePool {
	return &WorkspacePool{m: m}
}

// StepBatch bundles a fused batch workspace with the lane-marshalling
// scratch one step needs. Pooled so a continuous-batching loop pays one pool
// round-trip per decode iteration and zero steady-state allocations.
type StepBatch struct {
	bw        *model.BatchWorkspace
	tokens    []int
	positions []int
	caches    []kvcache.Cache
	chunks    []model.Chunk
}

// Batch exposes the underlying fused batch workspace, for callers that
// drive the model's batched entry points directly (e.g. construction-time
// chunked prefill of a shared prefix) with the same pooled scratch the
// step loop reuses.
func (sb *StepBatch) Batch() *model.BatchWorkspace { return sb.bw }

func (sb *StepBatch) ensure(n int) {
	sb.bw.EnsureLanes(n)
	if cap(sb.tokens) < n {
		sb.tokens = make([]int, n)
		sb.positions = make([]int, n)
		sb.caches = make([]kvcache.Cache, n)
	}
}

// ensureChunks grows the reusable model.Chunk marshalling scratch to at
// least k entries, keeping packed mixed steps allocation-free.
func (sb *StepBatch) ensureChunks(k int) {
	if cap(sb.chunks) < k {
		sb.chunks = make([]model.Chunk, k)
	}
}

// GetBatch returns a pooled fused step batch, allocating when none are
// free.
func (p *WorkspacePool) GetBatch() *StepBatch {
	p.mu.Lock()
	if n := len(p.freeBatch); n > 0 {
		sb := p.freeBatch[n-1]
		p.freeBatch = p.freeBatch[:n-1]
		p.mu.Unlock()
		return sb
	}
	p.mu.Unlock()
	return &StepBatch{bw: p.m.NewBatchWorkspace(0)}
}

// PutBatch returns a fused step batch to the pool. Cache references are
// cleared so a pooled batch does not pin retired sessions' KV memory.
func (p *WorkspacePool) PutBatch(sb *StepBatch) {
	if sb == nil {
		return
	}
	for i := range sb.caches {
		sb.caches[i] = nil
	}
	for i := range sb.chunks {
		sb.chunks[i] = model.Chunk{}
	}
	p.mu.Lock()
	p.freeBatch = append(p.freeBatch, sb)
	p.mu.Unlock()
}

// StepSession is one decode stream whose scratch state lives in a pooled
// workspace only for the duration of each step. Between steps it holds
// just the cache, the absolute position, and the already-decided next
// token, so it can be parked indefinitely (queued, preempted) without
// pinning a workspace.
type StepSession struct {
	m     *model.Model
	cache kvcache.Cache
	pos   int
	next  int
}

// NewPrefilledStepSession wraps a cache whose prompt is already fully
// prefilled — by chunked prefill through StepMixedStatsInto, or
// model.PrefillChunkInto — into a decode session. next is the first output
// token, decided from the final prompt position's logits
// (StepMixedStatsInto returns it for a Final chunk). m must be the model of
// the pool the session will step on. The resulting token stream — next,
// then what each step reports — is identical to Session.Next's over the
// same prompt and an equivalent cache: both decide each token greedily from
// bit-identical logits.
func NewPrefilledStepSession(m *model.Model, cache kvcache.Cache, next int) *StepSession {
	return &StepSession{m: m, cache: cache, pos: cache.TotalAppended(), next: next}
}

// Pos returns the number of tokens appended so far: the prompt and every
// decided token but the pending one.
func (s *StepSession) Pos() int { return s.pos }

// Cache exposes the session's cache.
func (s *StepSession) Cache() kvcache.Cache { return s.cache }

// StepStats accumulates per-step counters a scheduler aggregates across its
// serve loop. Currently: sparse attention's page-selection tallies, summed
// over every (layer, head) attention the step ran. Both stay zero when
// sparsity is off or never engaged.
type StepStats struct {
	SparsePagesSelected int64
	SparsePagesTotal    int64
}

// drainBatch moves a pooled step batch's sparse counters, over every lane,
// into the stats (or discards them when stats is nil). Pooled batches are
// shared across steps, so counters must never survive one — a later
// borrower would inherit them.
func (st *StepStats) drainBatch(sb *StepBatch) {
	sel, tot := sb.bw.TakeSparseStats()
	if st != nil {
		st.SparsePagesSelected += sel
		st.SparsePagesTotal += tot
	}
}

// PrefillChunk describes one prompt chunk advanced in the same fused pass
// as a decode iteration — the scheduler's unit of interleaved prefill work.
// The cache accumulates the prompt across successive chunks (its
// TotalAppended is the chunk's starting position); Final marks the prompt's
// last chunk, whose end-of-prompt logits decide the request's first output
// token.
type PrefillChunk struct {
	Tokens []int
	Cache  kvcache.Cache
	Final  bool
}

// StepMixedStatsInto is the step plane's one entry point — the
// iteration-level inner loop of continuous batching. It advances every
// session one position — appending its pending token (the one its previous
// step, or NewPrefilledStepSession, decided) to its cache — and writes the
// token this step's logits decide into toks (index-aligned; len(toks) must
// equal len(sessions)): toks[i] is session i's next output token and the
// token its next step will feed. In the same fused pass it advances any
// number of prefill chunks from distinct prompts:
// each chunk's positions prefill into that chunk's own cache, with each
// weight matrix loaded once for all of it (model.ForwardMixedInto) — the
// Sarathi-style packed iteration the scheduler's token budget fills. The
// caller re-forms the session and chunk sets between calls; one that reuses
// toks and nexts steps with zero allocations.
//
// Decided tokens are bit-identical to per-session stepping (Session.Next)
// and each chunk's cache writes to token-at-a-time prefill, regardless of
// packing. nexts must be index-aligned with chunks: nexts[j] receives chunk
// j's first output token when chunks[j].Final, else -1. An empty chunk
// slice is a plain decode step, an empty session set a pure prefill
// iteration, and a single session is a batch of one on the same fused pass.
// Sessions and chunks must own pairwise distinct caches, and every session
// must have been built on the pool's model — a foreign one panics: the
// pooled batch workspaces belong to that model. Per-step counters accumulate
// into stats (nil discards them — pooled counters are always drained so no
// later borrower inherits a stale tally).
func StepMixedStatsInto(pool *WorkspacePool, sessions []*StepSession, toks []int, chunks []PrefillChunk, nexts []int, stats *StepStats) {
	if len(toks) != len(sessions) {
		panic("core: StepMixedStatsInto toks length mismatch")
	}
	if len(nexts) != len(chunks) {
		panic("core: StepMixedStatsInto nexts length mismatch")
	}
	n := len(sessions)
	if n == 0 && len(chunks) == 0 {
		return
	}
	m := pool.m
	for _, s := range sessions {
		if s.m != m {
			panic("core: session was built on a model that is not the pool's")
		}
	}
	sb := pool.GetBatch()
	sb.ensure(n)
	sb.ensureChunks(len(chunks))
	for i, s := range sessions {
		sb.tokens[i] = s.next
		sb.positions[i] = s.pos
		sb.caches[i] = s.cache
	}
	mcs := sb.chunks[:len(chunks)]
	for j := range chunks {
		ch := &chunks[j]
		mcs[j] = model.Chunk{
			Tokens:     ch.Tokens,
			Pos:        ch.Cache.TotalAppended(),
			Cache:      ch.Cache,
			NeedLogits: ch.Final,
		}
	}
	sb.bw.SetWorkers(runtime.GOMAXPROCS(0))
	results, chunkRes := m.ForwardMixedInto(sb.bw, sb.tokens[:n], sb.positions[:n], sb.caches[:n], mcs)
	for i, s := range sessions {
		s.next = tensor.Argmax(results[i].Logits)
		s.pos++
		toks[i] = s.next
	}
	for j := range chunks {
		if chunks[j].Final {
			nexts[j] = tensor.Argmax(chunkRes[j].Logits)
		} else {
			nexts[j] = -1
		}
		// Drop the cache reference before the batch re-enters the pool.
		mcs[j] = model.Chunk{}
	}
	stats.drainBatch(sb)
	pool.PutBatch(sb)
}
