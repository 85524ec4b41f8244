package kvcache

import (
	"errors"
	"testing"
)

func appendTokens(t *testing.T, c *PagedKV, n int, base float32) {
	t.Helper()
	sh := c.Shape()
	k := make([][]float32, sh.KVHeads)
	v := make([][]float32, sh.KVHeads)
	for i := 0; i < n; i++ {
		for h := 0; h < sh.KVHeads; h++ {
			k[h] = make([]float32, sh.HeadDim)
			v[h] = make([]float32, sh.HeadDim)
			for d := 0; d < sh.HeadDim; d++ {
				k[h][d] = base + float32(i*100+h*10+d)
				v[h][d] = -(base + float32(i*100+h*10+d))
			}
		}
		for l := 0; l < sh.Layers; l++ {
			c.Append(l, k, v)
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
				for d := range pk[i] {
					if pk[i][d] != ck[i][d] || pv[i][d] != cv[i][d] {
						t.Fatalf("clone diverges at layer %d head %d token %d", l, h, i)
					}
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
	if pk[6][0] == ck[6][0] {
		t.Fatal("parent and clone share post-divergence storage")
	}
	for i := 0; i < 6; i++ {
		for d := range pk[i] {
			if pk[i][d] != ck[i][d] {
				t.Fatalf("shared prefix corrupted at token %d", i)
			}
		}
	}
}
