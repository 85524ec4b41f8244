package attention

// Quest (Tang et al., 2024) is a query-aware sparsity method: the cache is
// kept in fixed-size pages, each summarised by per-channel element-wise
// minima and maxima of its keys. At decode time, each page's criticality is
// upper-bounded as Σ_c max(q_c·min_c, q_c·max_c); only the top-K pages are
// loaded and attended. Unlike eviction policies, nothing is discarded —
// memory stays full-size but attention *traffic* shrinks, and recall
// degrades only when the bound misranks a relevant page.

// PageSummary holds one page's per-channel key bounds.
type PageSummary struct {
	Min, Max []float32
}

// SummarizePage computes the bounds for a page of key vectors. It panics on
// an empty page.
func SummarizePage(keys [][]float32) PageSummary {
	if len(keys) == 0 {
		panic("attention: empty page")
	}
	d := len(keys[0])
	s := PageSummary{Min: make([]float32, d), Max: make([]float32, d)}
	copy(s.Min, keys[0])
	copy(s.Max, keys[0])
	for _, k := range keys[1:] {
		for c := 0; c < d; c++ {
			if k[c] < s.Min[c] {
				s.Min[c] = k[c]
			}
			if k[c] > s.Max[c] {
				s.Max[c] = k[c]
			}
		}
	}
	return s
}

// Criticality returns Quest's upper bound on the page's maximum query-key
// inner product. Identical arithmetic to the live plane's
// CriticalityStrided, just over the offline split min/max layout.
func (s PageSummary) Criticality(q []float32) float64 {
	var sum float64
	for c, qc := range q {
		lo := float64(qc) * float64(s.Min[c])
		hi := float64(qc) * float64(s.Max[c])
		if hi > lo {
			lo = hi
		}
		sum += lo
	}
	return sum
}

// SummarizePages computes every page's bounds — the precomputed-summaries
// input to QuestWithSummaries, built once and reused across queries instead
// of Quest()'s historical per-call recompute (O(pages·page·d) per query;
// see BenchmarkQuestSummarize*).
func SummarizePages(pageKeys [][][]float32) []PageSummary {
	summs := make([]PageSummary, len(pageKeys))
	for i, pk := range pageKeys {
		summs[i] = SummarizePage(pk)
	}
	return summs
}

// questSelect is the one shared offline selection: criticality scores via
// the Criticality bound, then the exact live-plane SelectTopPages policy
// (topK distinct pages, tail protected, ascending order, low-index ties) —
// Quest() and QuestRecall() can no longer drift apart, and offline recall
// numbers describe precisely what the model's sparse decode will select.
func questSelect(q []float32, summs []PageSummary, topK int) []int32 {
	scores := make([]float64, len(summs))
	for i := range summs {
		scores[i] = summs[i].Criticality(q)
	}
	sel := make([]int32, len(summs))
	return sel[:SelectTopPages(sel, scores, topK)]
}

// QuestResult reports a Quest attention invocation.
type QuestResult struct {
	Out Traffic
	// PagesSelected / PagesTotal measure the achieved sparsity.
	PagesSelected, PagesTotal int
}

// Quest computes attention over only the topK most critical pages. Returns
// the output, the traffic (summary reads + selected pages only), and the
// selection stats. The final (partial) page is always selected, matching
// Quest's protection of the most recent tokens. Summaries are recomputed
// from the pages on every call; a caller scoring many queries against one
// cache should build them once with SummarizePages and use
// QuestWithSummaries.
func Quest(q []float32, pageKeys, pageVals [][][]float32, topK int) ([]float32, Traffic, QuestResult) {
	if n := len(pageKeys); topK >= n || n == 0 {
		out, tr := Paged(q, pageKeys, pageVals)
		return out, tr, QuestResult{PagesSelected: n, PagesTotal: n}
	}
	return QuestWithSummaries(q, pageKeys, pageVals, SummarizePages(pageKeys), topK)
}

// QuestWithSummaries is Quest over precomputed page summaries: selection
// cost drops from O(pages·page·d) to O(pages·d) per query, which is the
// live plane's cost shape (kvcache maintains the summaries incrementally).
func QuestWithSummaries(q []float32, pageKeys, pageVals [][][]float32, summs []PageSummary, topK int) ([]float32, Traffic, QuestResult) {
	n := len(pageKeys)
	if topK >= n || n == 0 {
		out, tr := Paged(q, pageKeys, pageVals)
		return out, tr, QuestResult{PagesSelected: n, PagesTotal: n}
	}
	d := len(q)
	sel := questSelect(q, summs, topK)
	var keys, vals [][]float32
	for _, i := range sel {
		keys = append(keys, pageKeys[i]...)
		vals = append(vals, pageVals[i]...)
	}
	out, tr := Flash(q, keys, vals)
	// Traffic: the summaries of every page are read (2·d each), plus the
	// selected pages' K/V (already counted by Flash).
	tr.ElemsRead += int64(n * 2 * d)
	return out, tr, QuestResult{PagesSelected: len(sel), PagesTotal: n}
}

// QuestRecall measures, for diagnostics, the fraction of true attention
// mass captured by the selected pages: it runs full attention to obtain the
// exact scores, then sums the mass of the selected pages. The selection is
// the same questSelect the attention path uses — one policy, no drift.
func QuestRecall(q []float32, pageKeys, pageVals [][][]float32, topK int) float64 {
	n := len(pageKeys)
	if n == 0 || topK >= n {
		return 1
	}
	var keys, vals [][]float32
	pageOf := make([]int, 0)
	for p, pk := range pageKeys {
		keys = append(keys, pk...)
		vals = append(vals, pageVals[p]...)
		for range pk {
			pageOf = append(pageOf, p)
		}
	}
	_, scores, _ := Naive(q, keys, vals)
	keep := make([]bool, n)
	for _, i := range questSelect(q, SummarizePages(pageKeys), topK) {
		keep[i] = true
	}
	var mass float64
	for i, s := range scores {
		if keep[pageOf[i]] {
			mass += float64(s)
		}
	}
	return mass
}
