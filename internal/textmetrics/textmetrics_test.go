package textmetrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTokenF1(t *testing.T) {
	if !almost(TokenF1([]int{1, 2, 3}, []int{1, 2, 3}), 1) {
		t.Fatal("identical should score 1")
	}
	if TokenF1([]int{1}, []int{2}) != 0 {
		t.Fatal("disjoint should score 0")
	}
	// pred {1,2}, ref {2,3}: overlap 1 → P=0.5, R=0.5, F1=0.5.
	if !almost(TokenF1([]int{1, 2}, []int{2, 3}), 0.5) {
		t.Fatalf("F1 = %v", TokenF1([]int{1, 2}, []int{2, 3}))
	}
	// Multiset semantics: duplicated prediction tokens don't double-count.
	if TokenF1([]int{2, 2, 2}, []int{2}) >= 1 {
		t.Fatal("duplicates should lower precision")
	}
	if !almost(TokenF1(nil, nil), 1) || TokenF1(nil, []int{1}) != 0 {
		t.Fatal("empty handling")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 0},
		{[]int{1, 2, 3}, []int{1, 3}, 1},
		{[]int{1}, []int{2}, 1},
		{nil, []int{1, 2}, 2},
		{[]int{1, 2, 3, 4}, []int{2, 3, 4, 5}, 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Fatalf("lev(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSimilarity(t *testing.T) {
	if !almost(EditSimilarity([]int{1, 2}, []int{1, 2}), 1) {
		t.Fatal("identical similarity")
	}
	if !almost(EditSimilarity(nil, nil), 1) {
		t.Fatal("empty similarity")
	}
	if s := EditSimilarity([]int{1, 2, 3, 4}, []int{5, 6, 7, 8}); s != 0 {
		t.Fatalf("fully different similarity = %v", s)
	}
}

// Properties: symmetry and range for all metrics.
func TestQuickMetricProperties(t *testing.T) {
	clampTokens := func(raw []uint8) []int {
		out := make([]int, len(raw))
		for i, v := range raw {
			out[i] = int(v % 8)
		}
		return out
	}
	f := func(ra, rb []uint8) bool {
		a, b := clampTokens(ra), clampTokens(rb)
		f1 := TokenF1(a, b)
		es := EditSimilarity(a, b)
		if f1 < 0 || f1 > 1 || es < 0 || es > 1 {
			return false
		}
		// Symmetry.
		if !almost(TokenF1(a, b), TokenF1(b, a)) {
			return false
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
