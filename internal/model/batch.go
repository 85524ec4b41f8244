package model

import (
	"sync"

	"rethinkkv/internal/tensor"
)

// This file is the scratch state and sharding of the fused plane
// (ForwardMixedInto, prefill.go): one forward pass that advances B
// independent decode streams a single token each, loading every weight
// matrix once per step instead of once per stream. Projections and the LM
// head run as one batched GEMM over packed weights (tensor.Packed.MulInto:
// four lanes share every weight load); attention stays per-stream via the
// shared attendStep, because each stream attends over its own KV cache at
// its own position.
// Per lane the arithmetic is operation-for-operation identical to
// ForwardInto, so a fused step is bit-identical to stepping each stream
// separately — pinned by the equivalence tests in batch_test.go.

// BatchWorkspace owns the scratch state for fused batched decode: one
// Workspace per lane, the lane-indexed gather views the batched kernels
// consume, and the page walk's block scratch — one tensor.AttnBlock per shard
// (263 KiB for small-llama), not per lane, which would scale resident memory
// with the batch. It belongs to one decode loop at a time (the scheduler
// pools them like Workspaces); lanes grow on demand and are reused across
// steps, so steady-state fused stepping allocates nothing.
type BatchWorkspace struct {
	m     *Model
	lanes []*Workspace
	paths []cachePath
	blks  []*tensor.AttnBlock // attention scratch of shard s

	// Gather views: index b aliases lanes[b]'s buffers. They are built
	// once per lane and re-sliced to the step's batch size.
	hs, xs, qs, ks, vs [][]float32
	attnOuts, projs    [][]float32
	gates, ups, downs  [][]float32
	finals, logits     [][]float32

	results []StepResult
	workers int

	// Chunk scratch (built by ensureChunk, grown on demand): a prefill
	// chunk's K/V projections land in one contiguous token-major staging
	// span so a whole chunk appends with one AppendFlatN per layer. Chunk
	// positions borrow ordinary lanes for every other buffer; only K/V
	// need the contiguous home.
	ck, cv           []float32     // capacity chunkCap * KVDim
	ckTok, cvTok     [][]float32   // per-token views (projection dst)
	ckHeads, cvHeads [][][]float32 // per-token per-head views (generic Append fallback)
	chunkCap         int
	// chunkPaths holds each packed chunk's resolved fast-path set for the
	// current step, and chunkResults the per-chunk StepResult slots the
	// mixed step returns. Living in the (heap) workspace rather than in
	// locals keeps the mixed step allocation-free — a local path would
	// escape through the attention-sharding closure — and the paths are
	// cleared like paths so a pooled workspace never pins a retired cache.
	chunkPaths   []cachePath
	chunkResults []StepResult

	// Assembled gather views for mixed steps (decode lanes followed by
	// chunk positions, or the LM-head row subset). Backing arrays are
	// reused across steps, so mixed stepping stays allocation-free.
	mixKs, mixVs       [][]float32
	lmFinals, lmLogits [][]float32
}

// NewBatchWorkspace allocates a batch workspace with capacity lanes
// (grown automatically if a step brings more). Workers defaults to 1
// (fully serial); see SetWorkers.
func (m *Model) NewBatchWorkspace(capacity int) *BatchWorkspace {
	bw := &BatchWorkspace{m: m}
	bw.SetWorkers(1)
	bw.EnsureLanes(capacity)
	return bw
}

// EnsureLanes grows the workspace to at least n lanes.
func (bw *BatchWorkspace) EnsureLanes(n int) {
	for len(bw.lanes) < n {
		ws := bw.m.newLane()
		bw.lanes = append(bw.lanes, ws)
		bw.paths = append(bw.paths, cachePath{})
		bw.hs = append(bw.hs, ws.h)
		bw.xs = append(bw.xs, ws.x)
		bw.qs = append(bw.qs, ws.q)
		bw.ks = append(bw.ks, ws.k)
		bw.vs = append(bw.vs, ws.v)
		bw.attnOuts = append(bw.attnOuts, ws.attnOut)
		bw.projs = append(bw.projs, ws.proj)
		bw.gates = append(bw.gates, ws.gate)
		bw.ups = append(bw.ups, ws.up)
		bw.downs = append(bw.downs, ws.down)
		bw.finals = append(bw.finals, ws.final)
		bw.logits = append(bw.logits, ws.logits)
		bw.results = append(bw.results, StepResult{})
	}
}

// ensureChunkSlots grows the per-chunk path/result slots to at least k.
func (bw *BatchWorkspace) ensureChunkSlots(k int) {
	for len(bw.chunkPaths) < k {
		bw.chunkPaths = append(bw.chunkPaths, cachePath{})
		bw.chunkResults = append(bw.chunkResults, StepResult{})
	}
}

// SetWorkers sets the shard width for optional intra-step parallelism:
// with w > 1, large GEMMs are sharded by weight panel and attention by lane
// across up to w goroutines (bit-identical — every output has one owner).
// The default 1 keeps the step fully serial and allocation-free; a sharded
// step starts one goroutine per extra shard per GEMM and allocates for each.
func (bw *BatchWorkspace) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	bw.workers = w
	for len(bw.blks) < w {
		bw.blks = append(bw.blks, tensor.NewAttnBlock(bw.m.cfg.HeadDim, bw.m.cfg.MaxSeq))
	}
}

// gemmShardMin is the per-shard work floor (multiply-accumulates) below
// which sharding a GEMM costs more in goroutine latency than it saves.
const gemmShardMin = 1 << 15

// project runs one batched projection dst[b] = xs[b]ᵀ·w — the LM head is the
// projection over embedᵀ — sharded across workers by whole panels when the
// matrix is large enough to amortize the fan-out.
func (bw *BatchWorkspace) project(dst, xs [][]float32, w *tensor.Packed) {
	shards := bw.shardsFor(w.Rows*w.Cols*len(xs), w.Panels())
	if shards <= 1 {
		w.MulInto(dst, xs)
		return
	}
	runShards(shards, w.Panels(), func(_, lo, hi int) {
		w.MulPanelsInto(dst, xs, lo, hi)
	})
}

// attend runs per-lane attention for one layer, lane-sharded across
// workers: each stream's attention touches only its own cache, its lane
// workspace and its shard's block scratch, so lanes are independent.
func (bw *BatchWorkspace) attend(l, n int) {
	if shards := min(bw.workers, n); shards > 1 {
		runShards(shards, n, func(s, lo, hi int) { bw.attendLanes(l, s, lo, hi) })
		return
	}
	bw.attendLanes(l, 0, 0, n)
}

func (bw *BatchWorkspace) attendLanes(l, shard, lo, hi int) {
	for b := lo; b < hi; b++ {
		bw.m.attendStep(bw.lanes[b], bw.blks[shard], &bw.paths[b], l)
	}
}

// shardsFor picks the shard count for a GEMM of the given total work:
// bounded by the worker budget, the panel count (a panel is the unit of
// column sharding: the micro-kernel's width, so every output has one owner),
// and the per-shard work floor.
func (bw *BatchWorkspace) shardsFor(work, panels int) int {
	shards := bw.workers
	if shards > panels {
		shards = panels
	}
	if max := work / gemmShardMin; shards > max {
		shards = max
	}
	return shards
}

// runShards splits [0, total) into shards contiguous ranges and runs fn on
// each with its shard index, the first on the calling goroutine. fn must
// write only its range.
func runShards(shards, total int, fn func(s, lo, hi int)) {
	chunk := (total + shards - 1) / shards
	var wg sync.WaitGroup
	for s, lo := 1, chunk; lo < total; s, lo = s+1, lo+chunk {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, lo, min(lo+chunk, total))
	}
	fn(0, 0, chunk)
	wg.Wait()
}
