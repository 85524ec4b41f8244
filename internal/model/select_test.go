package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rethinkkv/internal/kvcache"
)

// This file pins the page-selection pair sparse decode calls
// (criticalityStrided, selectTopPages) against an offline oracle: Quest's
// bound computed one-shot over a page of Seq key views, and a stable sort.

// pageSummary holds one page's per-channel key bounds: the offline form of
// kvcache's incrementally folded flat summaries.
type pageSummary struct {
	min, max []float32
}

// summarizePage computes the bounds for a page of key vectors.
func summarizePage(keys [][]float32) pageSummary {
	d := len(keys[0])
	s := pageSummary{min: make([]float32, d), max: make([]float32, d)}
	copy(s.min, keys[0])
	copy(s.max, keys[0])
	for _, k := range keys[1:] {
		for c := 0; c < d; c++ {
			if k[c] < s.min[c] {
				s.min[c] = k[c]
			}
			if k[c] > s.max[c] {
				s.max[c] = k[c]
			}
		}
	}
	return s
}

// criticality returns Quest's upper bound on the page's maximum query-key
// inner product: criticalityStrided's arithmetic over the split layout.
func (s pageSummary) criticality(q []float32) float64 {
	var sum float64
	for c, qc := range q {
		lo := float64(qc) * float64(s.min[c])
		hi := float64(qc) * float64(s.max[c])
		if hi > lo {
			lo = hi
		}
		sum += lo
	}
	return sum
}

// offlineSelect scores one-shot summaries of a head's pages and applies the
// selection policy.
func offlineSelect(q []float32, pageKeys [][][]float32, topK int) []int32 {
	scores := make([]float64, len(pageKeys))
	for i, pk := range pageKeys {
		scores[i] = summarizePage(pk).criticality(q)
	}
	sel := make([]int32, len(pageKeys))
	return sel[:selectTopPages(sel, scores, topK)]
}

// selectCache builds a summaries-enabled paged cache (fp32 when bits==0)
// holding n pseudo-random tokens.
func selectCache(n, pageTokens, bits int, seed int64) *kvcache.PagedKV {
	shape := kvcache.Shape{Layers: 1, KVHeads: 2, HeadDim: 16}
	c := kvcache.NewPagePool(shape, pageTokens, 0, bits, true).NewCache()
	stride := shape.KVHeads * shape.HeadDim
	r := rand.New(rand.NewSource(seed))
	k := make([]float32, stride)
	v := make([]float32, stride)
	for t := 0; t < n; t++ {
		for i := range k {
			k[i] = float32(r.NormFloat64())
			v[i] = float32(r.NormFloat64())
		}
		c.AppendFlatN(0, 1, k, v)
	}
	return c
}

// summariesOf lists layer 0's key summaries, aligned with its pages.
func summariesOf(c *kvcache.PagedKV) [][]float32 {
	summs := make([][]float32, c.LayerPages(0))
	for p := range summs {
		summs[p] = c.KeySummary(0, p)
	}
	return summs
}

func TestSelectTopPagesPolicy(t *testing.T) {
	sel := make([]int32, 8)
	// Tail page always selected even when it scores worst.
	n := selectTopPages(sel, []float64{5, 4, 3, 2, -10}, 3)
	if n != 3 || sel[0] != 0 || sel[1] != 1 || sel[2] != 4 {
		t.Fatalf("got %v (n=%d), want [0 1 4]", sel[:n], n)
	}
	// Ties break toward the lower page index; output ascending.
	n = selectTopPages(sel, []float64{1, 7, 7, 7, 0}, 3)
	if n != 3 || sel[0] != 1 || sel[1] != 2 || sel[2] != 4 {
		t.Fatalf("tie-break: got %v (n=%d), want [1 2 4]", sel[:n], n)
	}
	// topK >= pages selects everything in order.
	n = selectTopPages(sel, []float64{3, 1, 2}, 9)
	if n != 3 || sel[0] != 0 || sel[1] != 1 || sel[2] != 2 {
		t.Fatalf("full-k: got %v (n=%d), want [0 1 2]", sel[:n], n)
	}
	if selectTopPages(sel, nil, 4) != 0 {
		t.Fatal("empty scores selected pages")
	}
}

// criticalityStrided over kvcache's flat summary layout must equal the
// offline pageSummary.criticality over the same page.
func TestCriticalityStridedMatchesOffline(t *testing.T) {
	c := selectCache(37, 16, 0, 5)
	shape := c.Shape()
	d := shape.HeadDim
	summs := summariesOf(c)
	stride := shape.KVHeads * shape.HeadDim
	r := rand.New(rand.NewSource(6))
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	for head := 0; head < shape.KVHeads; head++ {
		keys, _ := seqRows(c, 0, head)
		for p := range summs {
			lo, hi := p*16, (p+1)*16
			if hi > len(keys) {
				hi = len(keys)
			}
			want := summarizePage(keys[lo:hi]).criticality(q)
			got := criticalityStrided(q, summs[p], head*d, stride)
			if got != want {
				t.Fatalf("head %d page %d: %v != offline %v", head, p, got, want)
			}
		}
	}
}

// The criticality of a page must upper-bound every actual q·k in it, for
// every page codec: the summaries fold over the stored (dequantized) keys,
// which are the keys Seq hands back.
func TestCriticalityUpperBounds(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		c := selectCache(45, 16, bits, int64(4+bits))
		shape := c.Shape()
		q := randQuery(9, shape.HeadDim)
		for head := 0; head < shape.KVHeads; head++ {
			keys, _ := seqRows(c, 0, head)
			for i, k := range keys {
				bound := criticalityStrided(q, c.KeySummary(0, i/16), head*shape.HeadDim, shape.KVHeads*shape.HeadDim)
				var dot float64
				for ch := range q {
					dot += float64(q[ch]) * float64(k[ch])
				}
				if dot > bound+1e-5 {
					t.Fatalf("bits=%d head %d token %d: q·k %v exceeds its page's bound %v", bits, head, i, dot, bound)
				}
			}
		}
	}
}

// liveSelect is the engine's selection for one head: score every page's
// maintained summary with criticalityStrided, then selectTopPages — exactly
// what attendSparse does before its page walk.
func liveSelect(c *kvcache.PagedKV, q []float32, head, topK int) []int32 {
	shape := c.Shape()
	summs := summariesOf(c)
	scores := make([]float64, len(summs))
	for p := range summs {
		scores[p] = criticalityStrided(q, summs[p], head*shape.HeadDim, shape.KVHeads*shape.HeadDim)
	}
	sel := make([]int32, len(summs))
	return sel[:selectTopPages(sel, scores, topK)]
}

// pageKeysOf splits a head's Seq key rows (dequantized, for quantized pages)
// into a slice of pages.
func pageKeysOf(c *kvcache.PagedKV, head, pageTokens int) (pk [][][]float32) {
	keys, _ := seqRows(c, 0, head)
	for i := 0; i < len(keys); i += pageTokens {
		pk = append(pk, keys[i:min(i+pageTokens, len(keys))])
	}
	return pk
}

func randQuery(seed int64, d int) []float32 {
	r := rand.New(rand.NewSource(seed))
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	return q
}

// At topK >= pages the live selection must be every page in ascending order,
// for every page codec — which makes the model's selected walk the dense walk
// token for token (TestSparseDecodeFullKBitIdentical pins the resulting
// logits).
func TestSparseFullKBitIdenticalToDense(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			c := selectCache(53, 16, bits, int64(40+bits))
			shape := c.Shape()
			q := randQuery(8, shape.HeadDim)
			for head := 0; head < shape.KVHeads; head++ {
				for _, topK := range []int{4, 99} { // == pages, > pages
					sel := liveSelect(c, q, head, topK)
					if len(sel) != c.LayerPages(0) {
						t.Fatalf("topK=%d selected %d of %d", topK, len(sel), c.LayerPages(0))
					}
					for i, p := range sel {
						if int(p) != i {
							t.Fatalf("topK=%d: sel[%d]=%d, want ascending identity", topK, i, p)
						}
					}
				}
			}
		})
	}
}

// The live selection and the offline one must agree exactly, for every page
// codec: same summaries (incremental fold over the stored — for quantized
// pages, dequantized — keys vs one-shot summarizePage over the cache's Seq
// views), same policy.
func TestLiveSelectionMatchesOfflineQuest(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		c := selectCache(61, 16, bits, 13)
		shape := c.Shape()
		q := randQuery(14, shape.HeadDim)
		for head := 0; head < shape.KVHeads; head++ {
			pk := pageKeysOf(c, head, 16)
			for _, topK := range []int{1, 2, 3} {
				live := liveSelect(c, q, head, topK)
				offline := offlineSelect(q, pk, topK)
				if len(live) != len(offline) {
					t.Fatalf("bits=%d head %d topK=%d: live selected %d, offline %d", bits, head, topK, len(live), len(offline))
				}
				for i := range live {
					if live[i] != offline[i] {
						t.Fatalf("bits=%d head %d topK=%d: live %v, offline %v", bits, head, topK, live, offline)
					}
				}
			}
		}
	}
}

// With attention mass concentrated on one early page, a tiny topK must
// still find it: the live selection picks the hot page, tail protection
// keeps the recent one.
func TestSparseSelectionFindsConcentratedMass(t *testing.T) {
	const n, pageTokens = 64, 16
	shape := kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 8}
	c := kvcache.NewPagePool(shape, pageTokens, 0, 0, true).NewCache()
	d := shape.HeadDim
	q := make([]float32, d)
	q[0] = 8
	k := make([]float32, d)
	v := make([]float32, d)
	r := rand.New(rand.NewSource(3))
	for t0 := 0; t0 < n; t0++ {
		for i := range k {
			k[i] = 0.01 * float32(r.NormFloat64())
			v[i] = float32(r.NormFloat64())
		}
		if t0 == 20 { // page 1 holds the aligned key
			copy(k, q)
		}
		c.AppendFlatN(0, 1, k, v)
	}
	sel := liveSelect(c, q, 0, 2)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("selected %v, want the hot page and the tail [1 3]", sel)
	}
}

// The selection pair the engine calls per (layer, head) on the decode hot
// path allocates nothing over caller-owned scratch (pinned by make ci's
// bench-smoke; TestSparseDecodeAllocs pins the whole step).
func TestSparseAttentionZeroAlloc(t *testing.T) {
	for _, bits := range []int{0, 4} {
		c := selectCache(128, 16, bits, int64(51+bits))
		shape := c.Shape()
		stride := shape.KVHeads * shape.HeadDim
		q := make([]float32, shape.HeadDim)
		summs := summariesOf(c)
		scores := make([]float64, len(summs))
		sel := make([]int32, len(summs))
		if n := testing.AllocsPerRun(100, func() {
			for p := range summs {
				scores[p] = criticalityStrided(q, summs[p], 0, stride)
			}
			selectTopPages(sel, scores, 3)
		}); n != 0 {
			t.Fatalf("bits=%d: page selection allocated %.1f per run, want 0", bits, n)
		}
	}
}

// FuzzSelectTopPagesMatchesSort holds the selection policy to a stable sort
// written here: the tail page, then the highest scores, low page index first
// among equals, reported ascending. Scores are any float64 but NaN — ±Inf and
// ties included — and topK any positive budget.
func FuzzSelectTopPagesMatchesSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(3))
	f.Add([]byte{7, 7, 7, 7, 0}, uint8(3))
	f.Add([]byte{250, 251, 250, 9}, uint8(2))        // ±Inf among the scores
	f.Add([]byte{251, 251, 251, 251, 251}, uint8(2)) // nothing but -Inf still fills the budget
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		topK := 1 + int(k)%40
		n := len(raw)
		scores := make([]float64, n)
		for i, b := range raw {
			switch b {
			case 250:
				scores[i] = math.Inf(1)
			case 251:
				scores[i] = math.Inf(-1)
			default: // few distinct values, so ties are common
				scores[i] = float64(int(b%16) - 8)
			}
		}

		order := make([]int, 0, n)
		for i := 0; i < n-1; i++ {
			order = append(order, i)
		}
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		var want []int
		if n > 0 {
			want = append(want, n-1) // the tail is forced in
			want = append(want, order[:min(topK, n)-1]...)
			sort.Ints(want)
		}

		sel := make([]int32, n)
		got := sel[:selectTopPages(sel, append([]float64(nil), scores...), topK)]
		if len(got) != len(want) {
			t.Fatalf("scores %v topK %d: selected %v, want %v", scores, topK, got, want)
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("scores %v topK %d: selected %v, want %v", scores, topK, got, want)
			}
		}
	})
}
