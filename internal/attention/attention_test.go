package attention

import (
	"math"
	"testing"
	"testing/quick"

	"rethinkkv/internal/rng"
)

func randSeq(seed uint64, n, d int) (q []float32, keys, vals [][]float32) {
	r := rng.New(seed)
	q = make([]float32, d)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	for i := 0; i < n; i++ {
		k := make([]float32, d)
		v := make([]float32, d)
		for j := 0; j < d; j++ {
			k[j] = float32(r.NormFloat64())
			v[j] = float32(r.NormFloat64())
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return q, keys, vals
}

func TestFlashMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 300} {
		q, keys, vals := randSeq(uint64(n), n, 16)
		naiveOut, _, _ := Naive(q, keys, vals)
		flashOut, _ := Flash(q, keys, vals)
		for j := range naiveOut {
			if math.Abs(float64(naiveOut[j]-flashOut[j])) > 1e-4 {
				t.Fatalf("n=%d dim %d: naive %v vs flash %v", n, j, naiveOut[j], flashOut[j])
			}
		}
	}
}

func TestNaiveScoresSumToOne(t *testing.T) {
	q, keys, vals := randSeq(3, 50, 8)
	_, scores, _ := Naive(q, keys, vals)
	var sum float64
	for _, s := range scores {
		if s < 0 {
			t.Fatalf("negative score %v", s)
		}
		sum += float64(s)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("score sum = %v", sum)
	}
}

func TestFlashScoresMatchNaiveScores(t *testing.T) {
	q, keys, vals := randSeq(9, 40, 8)
	_, want, _ := Naive(q, keys, vals)
	got, tr := FlashScores(q, keys)
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-5 {
			t.Fatalf("score %d: %v vs %v", i, want[i], got[i])
		}
	}
	if tr.Passes < 2 {
		t.Fatalf("score recovery must cost extra passes, got %d", tr.Passes)
	}
	_ = vals
}

func TestTrafficOrdering(t *testing.T) {
	// Flash must move strictly fewer elements than Naive for the same input,
	// and use fewer passes — the mechanism behind the paper's Observation 1.
	q, keys, vals := randSeq(4, 256, 32)
	_, _, naiveTr := Naive(q, keys, vals)
	_, flashTr := Flash(q, keys, vals)
	if flashTr.ElemsRead >= naiveTr.ElemsRead {
		t.Fatalf("flash reads %d >= naive reads %d", flashTr.ElemsRead, naiveTr.ElemsRead)
	}
	if flashTr.Passes >= naiveTr.Passes {
		t.Fatalf("flash passes %d >= naive passes %d", flashTr.Passes, naiveTr.Passes)
	}
	// H2O-style score recovery erases part of the advantage.
	_, scoreTr := FlashScores(q, keys)
	total := flashTr
	total.Add(scoreTr)
	if total.Passes <= flashTr.Passes {
		t.Fatal("score recovery should add passes")
	}
}

func TestTrafficBytes(t *testing.T) {
	tr := Traffic{ElemsRead: 10, ElemsWritten: 5}
	if b := tr.Bytes(2); b != 30 {
		t.Fatalf("bytes = %d", b)
	}
}

func TestFlashEmptySequence(t *testing.T) {
	out, tr := Flash([]float32{1, 2}, nil, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty flash out = %v", out)
	}
	if tr.ElemsRead != 0 {
		t.Fatal("empty flash should read nothing")
	}
}

func TestPagedMatchesFlash(t *testing.T) {
	q, keys, vals := randSeq(5, 37, 8) // 37 = 2 full pages of 16 + partial
	flashOut, _ := Flash(q, keys, vals)
	var kp, vp [][][]float32
	for i := 0; i < len(keys); i += 16 {
		end := i + 16
		if end > len(keys) {
			end = len(keys)
		}
		kp = append(kp, keys[i:end])
		vp = append(vp, vals[i:end])
	}
	pagedOut, tr := Paged(q, kp, vp)
	for j := range flashOut {
		if math.Abs(float64(flashOut[j]-pagedOut[j])) > 1e-5 {
			t.Fatalf("paged diverges at dim %d", j)
		}
	}
	if tr.ElemsRead <= int64(2*len(keys)*8) {
		t.Fatal("paged should charge block-table reads")
	}
}

// Property: flash == naive across random sizes and seeds.
func TestQuickFlashEquivalence(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN)%100 + 1
		q, keys, vals := randSeq(seed, n, 8)
		a, _, _ := Naive(q, keys, vals)
		b, _ := Flash(q, keys, vals)
		for j := range a {
			if math.Abs(float64(a[j]-b[j])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttentionOutputInConvexHull(t *testing.T) {
	// Attention output is a convex combination of values: each output dim
	// must lie within [min, max] of that dim across values.
	q, keys, vals := randSeq(6, 20, 4)
	out, _ := Flash(q, keys, vals)
	for j := 0; j < 4; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			lo = math.Min(lo, float64(v[j]))
			hi = math.Max(hi, float64(v[j]))
		}
		if float64(out[j]) < lo-1e-4 || float64(out[j]) > hi+1e-4 {
			t.Fatalf("dim %d output %v outside hull [%v, %v]", j, out[j], lo, hi)
		}
	}
	_ = keys
}

// TestPagedBitIdenticalToFlash pins the streaming guarantee: because Paged
// feeds entries through the same online-softmax recurrence as Flash, the
// outputs are bit-identical, not merely close.
func TestPagedBitIdenticalToFlash(t *testing.T) {
	q, keys, vals := randSeq(21, 53, 8) // 3 full pages of 16 + partial
	want, _ := Flash(q, keys, vals)
	var kp, vp [][][]float32
	for i := 0; i < len(keys); i += 16 {
		end := i + 16
		if end > len(keys) {
			end = len(keys)
		}
		kp = append(kp, keys[i:end])
		vp = append(vp, vals[i:end])
	}
	got, tr := Paged(q, kp, vp)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dim %d: paged %v != flash %v", j, got[j], want[j])
		}
	}
	if want := int64(2*53*8 + 4); tr.ElemsRead != want {
		t.Fatalf("paged reads = %d, want %d (KV once + one block-table read per page)", tr.ElemsRead, want)
	}
}

func TestPagedEmpty(t *testing.T) {
	out, tr := Paged([]float32{1, 2}, nil, nil)
	if out[0] != 0 || out[1] != 0 || tr.ElemsRead != 0 {
		t.Fatalf("empty paged: out=%v tr=%+v", out, tr)
	}
	out, tr = Paged([]float32{1, 2}, [][][]float32{{}}, [][][]float32{{}})
	if out[0] != 0 || tr.ElemsRead != 1 {
		t.Fatalf("empty-page paged: out=%v tr=%+v", out, tr)
	}
}
