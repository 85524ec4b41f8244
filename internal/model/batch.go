package model

import "rethinkkv/internal/tensor"

// This file is the scratch state of the model's one forward pass
// (ForwardMixedInto, prefill.go), which advances B independent decode
// streams a single token each, plus any prefill chunks, loading every weight
// matrix once per step instead of once per stream. Projections and the LM
// head run as one batched GEMM over packed weights (tensor.Packed.MulInto:
// every group of up to eight rows shares every weight load on the AVX-512
// arm, at its own height, four on the others, and an output's reduction
// order does not depend on the row count); attention stays per-stream
// (append the token's K/V, then attendOver), because each stream attends over
// its own KV cache at its own position. A stream run alone is the same pass at
// one lane, so a fused step is bit-identical to stepping each stream by
// itself — pinned by the equivalence tests in batch_test.go.
//
// The scratch is one row store: per activation kind one row-major matrix,
// and a row is an index into every one of them. A pass's rows are its decode
// lanes, then its chunks' rows in chunk order, so a chunk's K/V rows are one
// contiguous span of the K and V matrices — the span its cache appends in
// one AppendFlatN — and a decode lane appends its own row.

// BatchWorkspace owns the scratch state of the forward pass: the row store
// and its gather views, the page walk's block scratch — one tensor.AttnBlock
// (≈ 295 KiB for small-llama), not one per row, which would scale resident
// memory with the batch — and the attention's Quest and tally scratch, one
// set for every row. It belongs to one step loop
// (core.WorkspacePool holds the scheduler's; an offline session owns one at
// one lane) and is used by one goroutine at a time; the store grows only
// when a pass brings more rows than any before it and is reused across
// steps, so steady-state stepping allocates nothing.
type BatchWorkspace struct {
	m *Model
	// rowViews views every row of the store, index for index, one view per
	// row into each kind's matrix (EnsureLanes).
	rowViews
	paths   []cachePath // each decode lane's cache, for the current pass
	blk     *tensor.AttnBlock
	seq     seqPage // the KV head of a cache that is not Paged being walked
	results []StepResult
	// chunkPaths holds each packed chunk's resolved fast-path set for the
	// current step, and chunkResults the per-chunk StepResult slots the
	// mixed step returns. They live in the workspace so the mixed step
	// allocates nothing, and are cleared like paths so a parked workspace
	// never pins a retired cache.
	chunkPaths   []cachePath
	chunkResults []StepResult
	// live views the live rows of the last layer (gatherLive); its backing
	// arrays are reused across steps.
	live rowViews

	// pageScores and pageSel are Quest's per-page criticality scores
	// (consumed destructively by selection) and selected page indices,
	// grown geometrically so steady-state sparse decode allocates nothing.
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

// rowViews is a set of rows the layer loop runs over: per activation kind,
// one view per row, the form the batched kernels consume. The workspace's
// every row is one set; the live rows of a pass's last layer are another,
// aliasing the same rows.
type rowViews struct {
	hs, xs, qs    [][]float32 // residual, normed activations, query (RoPE'd in place)
	ks, vs        [][]float32 // key (RoPE'd in place) and value projections
	attnOuts      [][]float32 // concatenated head outputs
	projs         [][]float32 // output projection
	gates, ups    [][]float32 // FFN gate and up
	downs, finals [][]float32 // FFN down, pre-logit hidden state
	logits        [][]float32 // LM head output
	sins, coss    [][]float32 // the row's RoPE coefficients
}

// kinds returns the set's views, one per activation kind.
func (r *rowViews) kinds() [14]*[][]float32 {
	return [...]*[][]float32{&r.hs, &r.xs, &r.qs, &r.ks, &r.vs, &r.attnOuts, &r.projs,
		&r.gates, &r.ups, &r.downs, &r.finals, &r.logits, &r.sins, &r.coss}
}

// rows returns the set's rows [lo, hi).
func (r *rowViews) rows(lo, hi int) rowViews {
	var s rowViews
	dst := s.kinds()
	for k, v := range r.kinds() {
		*dst[k] = (*v)[lo:hi]
	}
	return s
}

// add appends src's row i to the set.
func (r *rowViews) add(src *rowViews, i int) {
	from := src.kinds()
	for k, v := range r.kinds() {
		*v = append(*v, (*from[k])[i])
	}
}

// flatRows returns rows [lo, hi) of one kind of the store as the one stretch
// of its matrix they occupy: a store view's capacity runs to the matrix's end.
func flatRows(views [][]float32, lo, hi int) []float32 {
	return views[lo][:(hi-lo)*len(views[lo])]
}

// NewBatchWorkspace allocates a batch workspace with capacity rows
// (grown automatically if a step brings more).
func (m *Model) NewBatchWorkspace(capacity int) *BatchWorkspace {
	bw := &BatchWorkspace{m: m, blk: tensor.NewAttnBlock(m.cfg.HeadDim, m.cfg.MaxSeq)}
	bw.EnsureLanes(capacity)
	return bw
}

// EnsureLanes grows the row store to at least n rows — a pass of B decode
// lanes and C chunk rows needs B + C — by re-slicing every view over new
// matrices of exactly n rows. What the old matrices held is not carried
// over: a pass writes every row before it reads it.
func (bw *BatchWorkspace) EnsureLanes(n int) {
	if n <= len(bw.hs) {
		return
	}
	cfg := bw.m.cfg
	h, kv, ffn, half := cfg.Hidden(), cfg.KVDim(), cfg.FFNDim, cfg.HeadDim/2
	widths := [...]int{h, h, h, kv, kv, h, h, ffn, ffn, h, h, cfg.Vocab, half, half} // in kinds' order
	for k, v := range bw.kinds() {
		w := widths[k]
		mat := make([]float32, n*w)
		views := make([][]float32, n)
		for i := range views {
			views[i] = mat[i*w : (i+1)*w]
		}
		*v = views
	}
	bw.paths = make([]cachePath, n)
	bw.results = make([]StepResult, n)
}

// SetWorkers is a no-op: the pass is serial by construction, every GEMM and
// every row's attention on the calling goroutine. It stays for callers that
// still pass a worker count.
func (bw *BatchWorkspace) SetWorkers(int) {}

// attend runs one layer's attention for the first n rows, the decode lanes:
// every lane appends its row's K/V (already RoPE'd, see ForwardMixedInto),
// in lane order, then every lane attends over its own cache. Interleaving the
// two per lane read 4–5 % slower at six and eight small-llama lanes on one P.
func (bw *BatchWorkspace) attend(l, n int) {
	for b := 0; b < n; b++ {
		bw.paths[b].cache.AppendFlatN(l, 1, bw.ks[b], bw.vs[b])
	}
	for b := 0; b < n; b++ {
		bw.attendOver(bw.qs[b:b+1], bw.attnOuts[b:b+1], &bw.paths[b], l, -1)
	}
}
