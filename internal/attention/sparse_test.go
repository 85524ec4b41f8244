package attention

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rethinkkv/internal/kvcache"
)

// sparseCache builds a summaries-enabled paged cache (fp32 when bits==0)
// holding n pseudo-random tokens.
func sparseCache(n, pageTokens, bits int, seed int64) *kvcache.PagedKV {
	shape := kvcache.Shape{Layers: 1, KVHeads: 2, HeadDim: 16}
	c := kvcache.NewPagedKVQuant(shape, pageTokens, 0, bits)
	c.EnableKeySummaries()
	stride := shape.KVHeads * shape.HeadDim
	r := rand.New(rand.NewSource(seed))
	k := make([]float32, stride)
	v := make([]float32, stride)
	for t := 0; t < n; t++ {
		for i := range k {
			k[i] = float32(r.NormFloat64())
			v[i] = float32(r.NormFloat64())
		}
		c.AppendFlat(0, k, v)
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
	n := SelectTopPages(sel, []float64{5, 4, 3, 2, -10}, 3)
	if n != 3 || sel[0] != 0 || sel[1] != 1 || sel[2] != 4 {
		t.Fatalf("got %v (n=%d), want [0 1 4]", sel[:n], n)
	}
	// Ties break toward the lower page index; output ascending.
	n = SelectTopPages(sel, []float64{1, 7, 7, 7, 0}, 3)
	if n != 3 || sel[0] != 1 || sel[1] != 2 || sel[2] != 4 {
		t.Fatalf("tie-break: got %v (n=%d), want [1 2 4]", sel[:n], n)
	}
	// topK >= pages selects everything in order.
	n = SelectTopPages(sel, []float64{3, 1, 2}, 9)
	if n != 3 || sel[0] != 0 || sel[1] != 1 || sel[2] != 2 {
		t.Fatalf("full-k: got %v (n=%d), want [0 1 2]", sel[:n], n)
	}
	if SelectTopPages(sel, nil, 4) != 0 {
		t.Fatal("empty scores selected pages")
	}
}

// CriticalityStrided over kvcache's flat summary layout must equal the
// offline PageSummary.Criticality over the same page.
func TestCriticalityStridedMatchesOffline(t *testing.T) {
	c := sparseCache(37, 16, 0, 5)
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
		keys, _ := c.Seq(0, head)
		for p := range summs {
			lo, hi := p*16, (p+1)*16
			if hi > len(keys) {
				hi = len(keys)
			}
			want := SummarizePage(keys[lo:hi]).Criticality(q)
			got := CriticalityStrided(q, summs[p], head*d, stride)
			if got != want {
				t.Fatalf("head %d page %d: %v != offline %v", head, p, got, want)
			}
		}
	}
}

// liveSelect is the engine's selection for one head: score every page's
// maintained summary with CriticalityStrided, then SelectTopPages — exactly
// what the model's sparse decode does before its page walk.
func liveSelect(c *kvcache.PagedKV, q []float32, head, topK int) []int32 {
	shape := c.Shape()
	summs := summariesOf(c)
	scores := make([]float64, len(summs))
	for p := range summs {
		scores[p] = CriticalityStrided(q, summs[p], head*shape.HeadDim, shape.KVHeads*shape.HeadDim)
	}
	sel := make([]int32, len(summs))
	return sel[:SelectTopPages(sel, scores, topK)]
}

// pagesOf splits a head's per-token Seq views (dequantized, for quantized
// pages) into the offline kernels' slice-of-pages layout.
func pagesOf(c *kvcache.PagedKV, head, pageTokens int) (pk, pv [][][]float32) {
	keys, vals := c.Seq(0, head)
	for i := 0; i < len(keys); i += pageTokens {
		end := min(i+pageTokens, len(keys))
		pk = append(pk, keys[i:end])
		pv = append(pv, vals[i:end])
	}
	return pk, pv
}

func randQuery(seed int64, d int) []float32 {
	r := rand.New(rand.NewSource(seed))
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	return q
}

// At topK >= pages sparse attention must be exactly dense attention, for
// every page codec: the live selection is then every page in ascending
// order — which makes the model's selected walk the dense walk token for
// token (internal/model pins the resulting logits) — and the offline Quest
// delegates to Paged bit-for-bit.
func TestSparseFullKBitIdenticalToDense(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			c := sparseCache(53, 16, bits, int64(40+bits))
			shape := c.Shape()
			q := randQuery(8, shape.HeadDim)
			for head := 0; head < shape.KVHeads; head++ {
				pk, pv := pagesOf(c, head, 16)
				want, _ := Paged(q, pk, pv)
				for _, topK := range []int{4, 99} { // == pages, > pages
					sel := liveSelect(c, q, head, topK)
					if len(sel) != len(pk) {
						t.Fatalf("topK=%d selected %d of %d", topK, len(sel), len(pk))
					}
					for i, p := range sel {
						if int(p) != i {
							t.Fatalf("topK=%d: sel[%d]=%d, want ascending identity", topK, i, p)
						}
					}
					got, _, res := Quest(q, pk, pv, topK)
					if res.PagesSelected != len(pk) {
						t.Fatalf("topK=%d: offline selected %d of %d", topK, res.PagesSelected, len(pk))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("head %d topK=%d: out[%d]=%g, dense %g", head, topK, j, got[j], want[j])
						}
					}
				}
			}
		})
	}
}

// The live selection and the offline Quest must agree exactly, for every
// page codec: same summaries (incremental fold over the stored — for
// quantized pages, dequantized — keys vs one-shot SummarizePage over the
// cache's Seq views), same policy. One ranking across both planes is what
// lets offline recall numbers describe the engine's sparse decode.
func TestLiveSelectionMatchesOfflineQuest(t *testing.T) {
	for _, bits := range []int{0, 8, 4} {
		c := sparseCache(61, 16, bits, 13)
		shape := c.Shape()
		q := randQuery(14, shape.HeadDim)
		for head := 0; head < shape.KVHeads; head++ {
			pk, pv := pagesOf(c, head, 16)
			for _, topK := range []int{1, 2, 3} {
				live := liveSelect(c, q, head, topK)
				offline := questSelect(q, SummarizePages(pk), topK)
				if len(live) != len(offline) {
					t.Fatalf("bits=%d head %d topK=%d: live selected %d, offline %d", bits, head, topK, len(live), len(offline))
				}
				for i := range live {
					if live[i] != offline[i] {
						t.Fatalf("bits=%d head %d topK=%d: live %v, offline %v", bits, head, topK, live, offline)
					}
				}
				if _, _, res := Quest(q, pk, pv, topK); res.PagesSelected != len(live) {
					t.Fatalf("bits=%d head %d topK=%d: Quest attended %d pages, live %d", bits, head, topK, res.PagesSelected, len(live))
				}
			}
		}
	}
}

// QuestWithSummaries over precomputed summaries must reproduce Quest
// exactly — the precompute is a cost fix, not a behavior change.
func TestQuestWithSummariesMatchesQuest(t *testing.T) {
	q, keys, vals := randSeq(31, 73, 32)
	var pk, pv [][][]float32
	for i := 0; i < len(keys); i += 16 {
		end := i + 16
		if end > len(keys) {
			end = len(keys)
		}
		pk = append(pk, keys[i:end])
		pv = append(pv, vals[i:end])
	}
	summs := SummarizePages(pk)
	for topK := 1; topK <= len(pk)+1; topK++ {
		a, atr, ares := Quest(q, pk, pv, topK)
		b, btr, bres := QuestWithSummaries(q, pk, pv, summs, topK)
		if ares != bres || atr != btr {
			t.Fatalf("topK=%d: result/traffic diverge: %+v/%+v vs %+v/%+v", topK, ares, atr, bres, btr)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("topK=%d: out[%d] %g != %g", topK, j, a[j], b[j])
			}
		}
	}
}

// With attention mass concentrated on one early page, a tiny topK must
// still capture nearly all of it: the live selection finds the hot page,
// tail protection keeps the recent one.
func TestSparseSelectionFindsConcentratedMass(t *testing.T) {
	const n, pageTokens = 64, 16
	shape := kvcache.Shape{Layers: 1, KVHeads: 1, HeadDim: 8}
	c := kvcache.NewPagedKV(shape, pageTokens)
	c.EnableKeySummaries()
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
		c.AppendFlat(0, k, v)
	}
	sel := liveSelect(c, q, 0, 2)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("selected %v, want the hot page and the tail [1 3]", sel)
	}
	pk, pv := pagesOf(c, 0, pageTokens)
	dense, _ := Paged(q, pk, pv)
	out, _, _ := Quest(q, pk, pv, 2)
	for j := range out {
		if diff := math.Abs(float64(out[j] - dense[j])); diff > 1e-3 {
			t.Fatalf("out[%d] drifted %g from dense %g", j, diff, dense[j])
		}
	}
}

// The selection pair the engine calls per (layer, head) on the decode hot
// path allocates nothing over caller-owned scratch (pinned by make ci's
// bench-smoke; the model's own TestSparseDecodeAllocs pins the whole step).
func TestSparseAttentionZeroAlloc(t *testing.T) {
	for _, bits := range []int{0, 4} {
		c := sparseCache(128, 16, bits, int64(51+bits))
		shape := c.Shape()
		stride := shape.KVHeads * shape.HeadDim
		q := make([]float32, shape.HeadDim)
		summs := summariesOf(c)
		scores := make([]float64, len(summs))
		sel := make([]int32, len(summs))
		if n := testing.AllocsPerRun(100, func() {
			for p := range summs {
				scores[p] = CriticalityStrided(q, summs[p], 0, stride)
			}
			SelectTopPages(sel, scores, 3)
		}); n != 0 {
			t.Fatalf("bits=%d: page selection allocated %.1f per run, want 0", bits, n)
		}
	}
}

// BenchmarkQuestSummaries prices satellite fix #2: Quest()'s historical
// per-call SummarizePage recompute vs QuestWithSummaries over summaries
// built once — the difference is the O(pages·page·d) per query the offline
// experiments were paying for free.
func BenchmarkQuestSummaries(b *testing.B) {
	q, keys, vals := randSeq(71, 4096, 64)
	var pk, pv [][][]float32
	for i := 0; i < len(keys); i += 16 {
		end := i + 16
		if end > len(keys) {
			end = len(keys)
		}
		pk = append(pk, keys[i:end])
		pv = append(pv, vals[i:end])
	}
	const topK = 16
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Quest(q, pk, pv, topK)
		}
	})
	summs := SummarizePages(pk)
	b.Run("precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			QuestWithSummaries(q, pk, pv, summs, topK)
		}
	})
}
