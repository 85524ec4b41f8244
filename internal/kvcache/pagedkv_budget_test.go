package kvcache

import (
	"errors"
	"testing"
)

func appendTokens(t *testing.T, c *PagedKV, n int, base float32) {
	t.Helper()
	sh := c.Shape()
	k := make([]float32, sh.KVHeads*sh.HeadDim)
	v := make([]float32, sh.KVHeads*sh.HeadDim)
	for i := 0; i < n; i++ {
		for h := 0; h < sh.KVHeads; h++ {
			for d := 0; d < sh.HeadDim; d++ {
				k[h*sh.HeadDim+d] = base + float32(i*100+h*10+d)
				v[h*sh.HeadDim+d] = -(base + float32(i*100+h*10+d))
			}
		}
		for l := 0; l < sh.Layers; l++ {
			c.AppendFlatN(l, 1, k, v)
		}
	}
}

func TestPagedKVBudgetReserve(t *testing.T) {
	sh := Shape{Layers: 2, KVHeads: 2, HeadDim: 4}
	c := NewPagedKVQuant(sh, 4, 2, 0) // 2 pages of 4 tokens = 8 tokens max

	if err := c.Reserve(8); err != nil {
		t.Fatalf("Reserve(8) within budget: %v", err)
	}
	appendTokens(t, c, 8, 0)
	if got := c.Pages(); got != 2 {
		t.Fatalf("Pages = %d, want 2", got)
	}
	err := c.Reserve(1)
	if err == nil {
		t.Fatal("Reserve(1) past budget succeeded")
	}
	if !errors.Is(err, ErrOutOfPages) {
		t.Fatalf("Reserve error %v is not ErrOutOfPages", err)
	}
	// The cache did not overgrow.
	if got := c.TotalAppended(); got != 8 {
		t.Fatalf("TotalAppended = %d, want 8", got)
	}

	// An unreserved append past the budget is a contract violation and
	// must panic with the typed error, never silently grow.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("append past budget did not panic")
			}
			if err, ok := r.(error); !ok || !errors.Is(err, ErrOutOfPages) {
				t.Fatalf("panic value %v is not ErrOutOfPages", r)
			}
		}()
		appendTokens(t, c, 1, 99)
	}()
}

func TestPagedKVClonePrefixIsolation(t *testing.T) {
	sh := Shape{Layers: 2, KVHeads: 2, HeadDim: 4}
	parent := NewPagedKV(sh, 4)
	appendTokens(t, parent, 6, 0) // 1 full page + 1 partial (2 tokens)

	clone := parent.ClonePrefix()
	if got, want := clone.TotalAppended(), 6; got != want {
		t.Fatalf("clone TotalAppended = %d, want %d", got, want)
	}
	if got := sharedPages(clone, parent); got != 1 {
		t.Fatalf("shared pages = %d, want 1 (partial page deep-copied)", got)
	}

	// Clone content matches parent exactly before divergence.
	for l := 0; l < sh.Layers; l++ {
		for h := 0; h < sh.KVHeads; h++ {
			pk, pv := parent.Seq(l, h)
			ck, cv := clone.Seq(l, h)
			for i := range pk {
				if pk[i] != ck[i] || pv[i] != cv[i] {
					t.Fatalf("clone diverges at layer %d head %d token %d", l, h, i/sh.HeadDim)
				}
			}
		}
	}

	// Diverge: parent and clone each append different tokens; neither may
	// see the other's writes (the partial page was copied, full pages are
	// immutable).
	appendTokens(t, parent, 3, 1000)
	appendTokens(t, clone, 3, 2000)
	pk, _ := parent.Seq(0, 0)
	ck, _ := clone.Seq(0, 0)
	if pk[6*sh.HeadDim] == ck[6*sh.HeadDim] {
		t.Fatal("parent and clone share post-divergence storage")
	}
	for i := 0; i < 6*sh.HeadDim; i++ {
		if pk[i] != ck[i] {
			t.Fatalf("shared prefix corrupted at token %d", i/sh.HeadDim)
		}
	}
}

// TestReserveRefusalAllocFree pins a refused Reserve at 0 allocations:
// admission retries it after every eviction until the promise fits, so each
// refusal is on the serving path. The refusal is still ErrOutOfPages.
func TestReserveRefusalAllocFree(t *testing.T) {
	c := NewPagedKVQuant(Shape{Layers: 2, KVHeads: 2, HeadDim: 4}, 4, 2, 8)
	var err error
	if n := testing.AllocsPerRun(100, func() { err = c.Reserve(9) }); n != 0 {
		t.Fatalf("refused Reserve allocated %.1f per call, want 0", n)
	}
	if !errors.Is(err, ErrOutOfPages) {
		t.Fatalf("Reserve past the budget returned %v, want ErrOutOfPages", err)
	}
}
