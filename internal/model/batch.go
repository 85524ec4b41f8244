package model

import "rethinkkv/internal/tensor"

// This file is the scratch state of the model's one forward
// pass (ForwardMixedInto, prefill.go), which advances B independent decode
// streams a single token each, plus any prefill chunks, loading every weight
// matrix once per step instead of once per stream. Projections and the LM
// head run as one batched GEMM over packed weights (tensor.Packed.MulInto:
// every group of up to eight lanes shares every weight load on the AVX-512
// arm, at its own height, four on the others, and an output's reduction
// order does not depend on the lane count); attention stays per-stream
// (append the token's K/V, then attendLane), because each stream attends over
// its own KV cache at its own position. A stream run alone is the same pass at
// one lane, so a fused step is bit-identical to stepping each stream by
// itself — pinned by the equivalence tests in batch_test.go.

// BatchWorkspace owns the scratch state of the forward pass: one workspace
// per lane, the lane-indexed gather views the batched kernels consume, and the
// page walk's block scratch — one tensor.AttnBlock (≈ 295 KiB for
// small-llama), not one per lane, which would scale resident memory with the
// batch. It belongs to one step loop (core.WorkspacePool holds the
// scheduler's; an offline session owns one at one lane) and is used by one
// goroutine at a time; lanes grow on demand and are reused across steps, so
// steady-state stepping allocates nothing.
type BatchWorkspace struct {
	m     *Model
	lanes []*workspace
	paths []cachePath
	blk   *tensor.AttnBlock // the page walk's block scratch, shared by every lane

	// Gather views: index b aliases lanes[b]'s buffers. They are built
	// once per lane and re-sliced to the step's batch size.
	hs, xs, qs, ks, vs [][]float32
	attnOuts, projs    [][]float32
	gates, ups, downs  [][]float32
	finals, logits     [][]float32

	results []StepResult
	// probeRecall is the recall probe's setting, applied to lanes added later.
	probeRecall bool

	// Chunk scratch (built by ensureChunk, grown on demand): a prefill
	// chunk's K/V projections land in one contiguous token-major staging
	// span so a whole chunk appends with one AppendFlatN per layer. Chunk
	// positions borrow ordinary lanes for every other buffer; only K/V
	// need the contiguous home.
	ck, cv       []float32   // capacity chunkCap * KVDim
	ckTok, cvTok [][]float32 // per-token views (projection dst)
	chunkCap     int
	// chunkPaths holds each packed chunk's resolved fast-path set for the
	// current step, and chunkResults the per-chunk StepResult slots the
	// mixed step returns. They live in the workspace so the mixed step
	// allocates nothing, and are cleared like paths so a parked workspace
	// never pins a retired cache.
	chunkPaths   []cachePath
	chunkResults []StepResult

	// Assembled gather views for mixed steps (decode lanes followed by
	// chunk positions, or the LM-head row subset). Backing arrays are
	// reused across steps, so mixed stepping stays allocation-free.
	mixKs, mixVs       [][]float32
	lmFinals, lmLogits [][]float32
}

// NewBatchWorkspace allocates a batch workspace with capacity lanes
// (grown automatically if a step brings more).
func (m *Model) NewBatchWorkspace(capacity int) *BatchWorkspace {
	bw := &BatchWorkspace{m: m, blk: tensor.NewAttnBlock(m.cfg.HeadDim, m.cfg.MaxSeq)}
	bw.EnsureLanes(capacity)
	return bw
}

// EnsureLanes grows the workspace to at least n lanes.
func (bw *BatchWorkspace) EnsureLanes(n int) {
	for len(bw.lanes) < n {
		ws := bw.m.newLane()
		ws.probeRecall = bw.probeRecall
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

// SetWorkers is a no-op: the pass is serial by construction, every GEMM and
// every lane's attention on the calling goroutine. It stays for callers that
// still pass a worker count.
func (bw *BatchWorkspace) SetWorkers(int) {}

// attend runs one layer's attention for the first n lanes: every lane
// appends its token's K/V (already RoPE'd, see ForwardMixedInto), in lane
// order, then every lane attends over its own cache. Interleaving the two per
// lane read 4–5 % slower at six and eight small-llama lanes on one P.
func (bw *BatchWorkspace) attend(l, n int) {
	for b := 0; b < n; b++ {
		bw.paths[b].cache.AppendFlatN(l, 1, bw.lanes[b].k, bw.lanes[b].v)
	}
	for b := 0; b < n; b++ {
		bw.m.attendLane(bw.lanes[b], bw.blk, &bw.paths[b], l)
	}
}
