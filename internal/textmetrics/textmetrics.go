// Package textmetrics implements the token-sequence similarity metrics
// LongBench-style task scoring uses: unigram F1 (QA) and normalised edit
// similarity (code completion). Both operate on integer token sequences,
// matching the tiny model's outputs.
package textmetrics

// TokenF1 returns the unigram F1 overlap between a prediction and a
// reference, the standard QA metric. Both empty → 1; one empty → 0.
func TokenF1(pred, ref []int) float64 {
	if len(pred) == 0 && len(ref) == 0 {
		return 1
	}
	if len(pred) == 0 || len(ref) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, t := range ref {
		counts[t]++
	}
	overlap := 0
	for _, t := range pred {
		if counts[t] > 0 {
			counts[t]--
			overlap++
		}
	}
	if overlap == 0 {
		return 0
	}
	precision := float64(overlap) / float64(len(pred))
	recall := float64(overlap) / float64(len(ref))
	return 2 * precision * recall / (precision + recall)
}

// Levenshtein returns the edit distance between two token sequences.
func Levenshtein(a, b []int) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// EditSimilarity returns 1 − normalised Levenshtein distance, the
// code-completion metric.
func EditSimilarity(pred, ref []int) float64 {
	n := len(pred)
	if len(ref) > n {
		n = len(ref)
	}
	if n == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(pred, ref))/float64(n)
}
