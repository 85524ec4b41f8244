package attention

import "math"

// This file is the page-selection pair the serving engine calls: the same
// per-page criticality bound the offline Quest() prototype scores, but over
// kvcache's incrementally maintained flat summaries
// (kvcache.Paged's KeySummary) and with zero allocation — the model scores
// into, and selects out of, caller-owned scratch; selection is a repeated
// max-scan instead of sort.Slice. The tail page is always selected (Quest's
// recent-token protection): the query's strongest local context lives there
// and its summary covers few tokens, so the bound is least informative
// exactly where the cost of a miss is highest.

// CriticalityStrided is PageSummary.Criticality over kvcache's flat summary
// layout: summ holds per-channel key minima in [0, stride) and maxima in
// [stride, 2*stride), and off selects the head (off = head*HeadDim). The
// arithmetic — float64 accumulation of Σ_c max(q_c·min_c, q_c·max_c) — is
// identical to the offline form, so live selection and offline recall
// diagnostics rank pages the same way.
func CriticalityStrided(q, summ []float32, off, stride int) float64 {
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

// SelectTopPages writes the indices of the topK highest-scoring pages into
// sel in ascending page order and returns how many were selected. The last
// page is always included. scores is consumed destructively (selected
// entries become -Inf); ties break toward the lower page index. topK >=
// len(scores) selects every page — ascending order then makes a sparse
// walk's stream identical to the dense walk's, which is what keeps
// topK >= pages bit-identical. sel must hold at least len(scores) entries.
func SelectTopPages(sel []int32, scores []float64, topK int) int {
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
	neg := math.Inf(-1)
	sel[0] = int32(n - 1) // tail protection
	scores[n-1] = neg
	cnt := 1
	for cnt < topK {
		best, bestScore := -1, neg
		for i, s := range scores {
			if s > bestScore {
				best, bestScore = i, s
			}
		}
		if best < 0 {
			break // every remaining score was -Inf
		}
		scores[best] = neg
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
