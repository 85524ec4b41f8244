package sched

import (
	"testing"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

// TestQuantPreemptionRecomputeDeterministic is the quantized twin of
// TestPreemptionRecomputeMatchesSequential: with KV quantization on, a page
// budget tight enough to force eviction must still yield streams
// bit-identical to an unconstrained engine at the same code width. Per-token
// quantize-on-append is what makes this hold — the recompute requantizes the
// replayed prompt+generated tokens to the identical codes, so decode resumes
// on the exact same values. The test also pins the capacity accounting: the
// engine's effective budget is the scaled (larger) page count, and peak
// residency exceeds what the same bytes held in fp32 pages.
func TestQuantPreemptionRecomputeDeterministic(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	for _, tc := range []struct {
		bits    int
		kvPages int // fp32-denominated; chosen so the scaled budget still evicts
	}{
		{bits: 8, kvPages: 5},
		{bits: 4, kvPages: 3},
	} {
		// Reference: same quantized engine, unbounded pages — no preemption.
		want, _ := runEngine(t, Config{MaxBatch: 4, PageTokens: 4, KVQuantBits: tc.bits}, prompts, maxNew, 0)

		// One-token predictions: admission plans for almost no growth.
		cfg := Config{MaxBatch: 4, PageTokens: 4, KVPages: tc.kvPages, KVQuantBits: tc.bits}
		got, e := runEngine(t, cfg, prompts, maxNew, 1)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("int%d request %d: %d tokens, want %d", tc.bits, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("int%d request %d token %d: %d != unconstrained %d (after preemption)",
						tc.bits, i, j, got[i][j], want[i][j])
				}
			}
		}
		st := e.Stats()
		if st.Preemptions == 0 {
			t.Fatalf("int%d: page budget never forced a preemption; test is vacuous", tc.bits)
		}
		shape := model.New(model.Tiny(), seed).CacheShape()
		effective := kvcache.ScaledPageBudget(tc.kvPages, shape, cfg.PageTokens, tc.bits)
		if effective <= tc.kvPages {
			t.Fatalf("int%d: scaled budget %d not larger than fp32 budget %d", tc.bits, effective, tc.kvPages)
		}
		if v := e.View(); v.PageBudget != effective {
			t.Fatalf("int%d: View.PageBudget = %d, want scaled %d", tc.bits, v.PageBudget, effective)
		}
		if st.PeakPages > effective {
			t.Fatalf("int%d: PeakPages %d exceeded scaled budget %d", tc.bits, st.PeakPages, effective)
		}
		if st.PeakPages <= tc.kvPages {
			t.Fatalf("int%d: PeakPages %d never exceeded the fp32 page count %d — quantization bought no capacity",
				tc.bits, st.PeakPages, tc.kvPages)
		}
	}
}

// TestQuantSharedPrefixDeterministic pins the copy-on-write admission path
// under quantization: full prefix pages are shared by reference (never
// re-quantized), and prefix-hit decode matches a cold quantized engine
// bit-for-bit.
func TestQuantSharedPrefixDeterministic(t *testing.T) {
	prefix := []int{11, 12, 13, 14, 15, 16, 17, 18}
	prompts := [][]int{
		append(append([]int{}, prefix...), 5, 6, 7),
		append(append([]int{}, prefix...), 300, 301),
		{9, 9, 9}, // miss: falls back to a cold private cache
	}
	const maxNew = 12
	for _, bits := range []int{8, 4} {
		want, _ := runEngine(t, Config{MaxBatch: 2, PageTokens: 4, KVQuantBits: bits}, prompts, maxNew, 0)
		got, e := runEngine(t, Config{MaxBatch: 2, PageTokens: 4, KVQuantBits: bits, SharedPrefix: prefix}, prompts, maxNew, 0)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("int%d request %d token %d: %d != cold %d", bits, i, j, got[i][j], want[i][j])
				}
			}
		}
		if st := e.Stats(); st.PrefixHits != 2 {
			t.Fatalf("int%d: PrefixHits = %d, want 2", bits, st.PrefixHits)
		}
	}
}

func TestBadQuantBitsRejected(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	if _, err := New(m, Config{KVQuantBits: 3}); err == nil {
		t.Fatal("KVQuantBits=3 accepted, want error")
	}
}
