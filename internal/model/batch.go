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
	m *Model
	// rowViews holds every lane and its gather views: index b aliases
	// lanes[b]'s buffers. They are built once per lane and re-sliced to the
	// step's row count.
	rowViews
	paths []cachePath
	blk   *tensor.AttnBlock // the page walk's block scratch, shared by every lane

	ks, vs  [][]float32
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

	// Assembled gather views for mixed steps: the K/V destinations (decode
	// lanes followed by chunk positions) and the live rows of the last layer
	// (gatherLive). Backing arrays are reused across steps, so mixed stepping
	// stays allocation-free.
	mixKs, mixVs [][]float32
	live         rowViews
}

// rowViews is a set of rows the layer loop runs over: the lanes and, index
// for index, the gather views of their buffers that the batched kernels
// consume. A workspace's every lane is one set; the live rows of a pass's
// last layer are another, aliasing the same buffers.
type rowViews struct {
	lanes                       []*workspace
	hs, xs, qs, attnOuts, projs [][]float32
	gates, ups, downs           [][]float32
	finals, logits              [][]float32
}

// add appends one lane's buffers to the set.
func (r *rowViews) add(ws *workspace) {
	r.lanes = append(r.lanes, ws)
	r.hs = append(r.hs, ws.h)
	r.xs = append(r.xs, ws.x)
	r.qs = append(r.qs, ws.q)
	r.attnOuts = append(r.attnOuts, ws.attnOut)
	r.projs = append(r.projs, ws.proj)
	r.gates = append(r.gates, ws.gate)
	r.ups = append(r.ups, ws.up)
	r.downs = append(r.downs, ws.down)
	r.finals = append(r.finals, ws.final)
	r.logits = append(r.logits, ws.logits)
}

// head returns the set's first n rows.
func (r *rowViews) head(n int) rowViews {
	return rowViews{
		r.lanes[:n], r.hs[:n], r.xs[:n], r.qs[:n], r.attnOuts[:n], r.projs[:n],
		r.gates[:n], r.ups[:n], r.downs[:n], r.finals[:n], r.logits[:n],
	}
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
		bw.rowViews.add(ws)
		bw.paths = append(bw.paths, cachePath{})
		bw.ks = append(bw.ks, ws.k)
		bw.vs = append(bw.vs, ws.v)
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
