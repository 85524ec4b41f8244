package model

import (
	"fmt"
	"math"
)

// This file is Quest sparse attention on the model's decode path. When
// SetSparseTopK enables it and the cache maintains key summaries
// (kvcache.Paged's KeySummary), each query head scores every resident page's
// summary with the Quest criticality bound (criticalityStrided), selects the
// topK pages, tail always included (selectTopPages), and hands the ascending
// list to the model's one page walk (attend.go) as a block of one query: the
// dense walk's routine with a different block size and page list. Both run
// over the BatchWorkspace's one set of scratch and allocate nothing. Sharing that walk is
// what keeps sparse decode bit-identical to dense whenever every page is
// selected (topK >= pages): the selection is ascending, so the streamed token
// order, and therefore every reduction order, is exactly the dense walk's.
//
// Sparsity applies only to decode (limit < 0). Chunked prefill keeps the
// dense walk: its causal bound addresses by position, and prefill is where
// the summaries are built in the first place.

// SetSparseTopK enables (k > 0) or disables (k == 0) Quest sparse decode
// attention. Decode steps on caches without key summaries, and all prefill,
// stay dense regardless. Must not be called while decoding is in flight;
// the scheduler sets it once at engine construction.
func (m *Model) SetSparseTopK(k int) {
	if k < 0 {
		panic(fmt.Sprintf("model: negative sparse topK %d", k))
	}
	m.sparseTopK = k
}

// SparseTopK reports the configured sparse page budget (0 = dense).
func (m *Model) SparseTopK() int { return m.sparseTopK }

// sparseScratch returns score and selection buffers covering np pages,
// growing the workspace's backing arrays geometrically.
func (bw *BatchWorkspace) sparseScratch(np int) ([]float64, []int32) {
	if cap(bw.pageScores) < np {
		n := max(2*cap(bw.pageScores), np)
		bw.pageScores = make([]float64, n)
		bw.pageSel = make([]int32, n)
	}
	return bw.pageScores[:np], bw.pageSel[:np]
}

// TakeSparseStats drains the pages-selected / pages-resident counters,
// accumulated per (layer, query head) sparse attention, and returns them.
// Both are zero when sparsity never engaged (dense decode, prefill, or fewer
// pages than topK).
func (bw *BatchWorkspace) TakeSparseStats() (selected, total int64) {
	selected, total = bw.sparseSel, bw.sparseTot
	bw.sparseSel, bw.sparseTot = 0, 0
	return selected, total
}

// SetRecallProbe toggles the attention-mass recall probe. While on, every
// sparse attention also runs the dense softmax and records the selected
// pages' share of the true attention mass — diagnostic only.
func (bw *BatchWorkspace) SetRecallProbe(on bool) { bw.probeRecall = on }

// TakeRecall drains the probe's tallies and returns them: the selected pages'
// softmax mass over probed attentions, and the number of probed attentions
// (mean recall = mass/count).
func (bw *BatchWorkspace) TakeRecall() (mass float64, count int64) {
	mass, count = bw.recallMass, bw.recallCnt
	bw.recallMass, bw.recallCnt = 0, 0
	return mass, count
}

// questEngages reports whether decode attention over layer l takes Quest's
// selected walks — one query per block, each with its own page list — rather
// than the dense walk: sparsity on, summaries present, no attention observer
// needing full scores, and more pages than the budget. With fewer, every page
// would be selected anyway: the dense walk is bit-identical and cheaper, and
// every query head is tallied as selecting all of them.
func (bw *BatchWorkspace) questEngages(cp *cachePath, l int) bool {
	m := bw.m
	if m.sparseTopK <= 0 || cp.observer != nil || cp.paged == nil || cp.paged.KeySummary(l, 0) == nil {
		return false
	}
	np := cp.paged.LayerPages(l)
	if np > m.sparseTopK {
		return true
	}
	bw.sparseSel += int64(np * m.cfg.Heads)
	bw.sparseTot += int64(np * m.cfg.Heads)
	return false
}

// criticalityStrided is Quest's upper bound on a page's largest query-key
// inner product, Σ_c max(q_c·min_c, q_c·max_c) accumulated in float64, over
// kvcache's flat summary layout: summ holds per-channel key minima in
// [0, stride) and maxima in [stride, 2*stride), and off selects the head
// (off = head*HeadDim). The tail page is always selected on top of it: the
// query's strongest local context lives there and its summary covers few
// tokens, so the bound is least informative exactly where a miss costs most.
func criticalityStrided(q, summ []float32, off, stride int) float64 {
	mins := summ[off : off+len(q)]
	maxs := summ[stride+off : stride+off+len(q)]
	var sum float64
	for c, qc := range q {
		lo := float64(qc) * float64(mins[c])
		hi := float64(qc) * float64(maxs[c])
		if hi > lo {
			lo = hi
		}
		sum += lo
	}
	return sum
}

// selectTopPages writes the indices of the topK highest-scoring pages into
// sel in ascending page order and returns how many were selected. The last
// page is always included. scores is consumed destructively (selected
// entries become NaN, which is how a taken page is told from one that scored
// -Inf); ties break toward the lower page index. topK >= len(scores) selects
// every page — ascending order then makes a sparse walk's stream identical to
// the dense walk's, which is what keeps topK >= pages bit-identical. sel must
// hold at least len(scores) entries.
func selectTopPages(sel []int32, scores []float64, topK int) int {
	n := len(scores)
	if n == 0 {
		return 0
	}
	if topK >= n {
		for i := range scores {
			sel[i] = int32(i)
		}
		return n
	}
	taken := math.NaN()
	sel[0] = int32(n - 1) // tail protection
	scores[n-1] = taken
	cnt := 1
	for cnt < topK {
		best := -1
		for i, s := range scores {
			if s == s && (best < 0 || s > scores[best]) {
				best = i
			}
		}
		if best < 0 {
			break // the caller's scores held NaNs: nothing comparable is left
		}
		scores[best] = taken
		// Insertion keeps sel ascending; the selection is small (topK),
		// so the quadratic worst case is a handful of int32 moves.
		j := cnt
		for j > 0 && sel[j-1] > int32(best) {
			sel[j] = sel[j-1]
			j--
		}
		sel[j] = int32(best)
		cnt++
	}
	return cnt
}

// attendSparse runs one query head's sparse decode attention: the
// workspace's block holds the head's query q alone, and its ascending topK
// page list narrows the walk. Summaries are fp32 whatever the page codec
// (kvcache folds them over dequantized keys), so the criticality bound covers
// what the walk reads.
func (bw *BatchWorkspace) attendSparse(cp *cachePath, v *pageView, q []float32) {
	m := bw.m
	np := v.paged.LayerPages(v.layer)
	scores, sel := bw.sparseScratch(np)
	off, stride := v.head*m.cfg.HeadDim, m.cfg.KVDim()
	for p := range scores {
		scores[p] = criticalityStrided(q, v.paged.KeySummary(v.layer, p), off, stride)
	}
	sel = sel[:selectTopPages(sel, scores, m.sparseTopK)]
	bw.sparseSel += int64(len(sel))
	bw.sparseTot += int64(np)
	m.attendBlock(bw.blk, cp, v, sel)
	if bw.probeRecall {
		bw.recordRecall(cp, v, sel)
	}
}

// recordRecall is the attention-mass recall probe: it re-scores the block's
// one query densely through the same walk and scratch, scale and softmax
// included, and accumulates the selected pages' share of the mass.
func (bw *BatchWorkspace) recordRecall(cp *cachePath, v *pageView, sel []int32) {
	dense := bw.blk.Weights(0, bw.m.softmaxBlock(bw.blk, cp, v, nil))
	var mass float64
	i, s := 0, 0
	for p := 0; p < v.paged.LayerPages(v.layer) && i < len(dense); p++ {
		_, t := v.paged.Rows(v.layer, p, v.head, false)
		t = min(t, len(dense)-i)
		if s < len(sel) && sel[s] == int32(p) {
			for _, w := range dense[i : i+t] {
				mass += float64(w)
			}
			s++
		}
		i += t
	}
	bw.recallMass += mass
	bw.recallCnt++
}
