package accuracy

import (
	"math"
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/model"
	"rethinkkv/internal/workload"
)

func tinyModel() *model.Model { return model.New(model.Tiny(), 99) }

func suite(n int) []workload.Sample {
	return workload.SampleLongBench(workload.DefaultLongBench(n, 256, model.Tiny().Vocab), 7)
}

func TestTinyCacheMappings(t *testing.T) {
	shape := tinyModel().CacheShape()
	for _, name := range []string{"fp16", "kivi-2", "kivi-4", "gear-2", "gear-4",
		"h2o-256", "h2o-512", "stream-256", "stream-512", "snapkv-512"} {
		c, err := TinyCache(name, shape)
		if err != nil || c == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := TinyCache("bogus", shape); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestBaselineScoresItselfPerfect(t *testing.T) {
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	s := suite(3)[0]
	ref := e.RunBaseline(s)
	r := e.Evaluate(ref, "fp16")
	if r.Retention != 1 || r.Fidelity < 0.999 {
		t.Fatalf("fp16 retention/fidelity = %v/%v", r.Retention, r.Fidelity)
	}
	if r.Agreement != 1 {
		t.Fatalf("fp16 agreement = %v", r.Agreement)
	}
	if r.Score < BaseScore(s.Task)*0.999 {
		t.Fatalf("fp16 score %v below base %v", r.Score, BaseScore(s.Task))
	}
}

func TestEvictionDestroysNeedles(t *testing.T) {
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	// Find a QA sample with an early needle on a long prompt so the
	// streaming window must have evicted it.
	var target *workload.Sample
	for _, s := range suite(60) {
		s := s
		if s.Task == workload.SingleDocQA && s.Critical[0].End < 60 && s.PromptLen > 200 {
			target = &s
			break
		}
	}
	if target == nil {
		t.Skip("no early-needle QA sample in draw")
	}
	ref := e.RunBaseline(*target)
	r := e.Evaluate(ref, "stream-256") // tiny-scale budget 64: sinks 8 + recent 56
	if target.Critical[0].Start >= 8 && r.Retention > 0.01 {
		t.Fatalf("early needle should be evicted, retention = %v", r.Retention)
	}
	if r.Score >= BaseScore(target.Task)*0.5 {
		t.Fatalf("QA with evicted needle should collapse, score = %v", r.Score)
	}
}

func TestQuantRetainsButDegrades(t *testing.T) {
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	s := suite(5)[1]
	ref := e.RunBaseline(s)
	r := e.Evaluate(ref, "kivi-2")
	if r.Retention != 1 {
		t.Fatalf("quant must retain all tokens, retention = %v", r.Retention)
	}
	if r.Fidelity >= 0.9999 {
		t.Fatalf("2-bit quant should lose fidelity, got %v", r.Fidelity)
	}
	if r.Score > BaseScore(s.Task) {
		t.Fatalf("score %v above base", r.Score)
	}
}

func TestBitWidthOrdering(t *testing.T) {
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	var f2, f4 float64
	var n int
	for _, s := range suite(6) {
		ref := e.RunBaseline(s)
		f2 += e.Evaluate(ref, "kivi-2").Fidelity
		f4 += e.Evaluate(ref, "kivi-4").Fidelity
		n++
	}
	if f2/float64(n) >= f4/float64(n) {
		t.Fatalf("2-bit fidelity %v should be below 4-bit %v", f2/float64(n), f4/float64(n))
	}
}

func TestGEARBitOrdering(t *testing.T) {
	// Within GEAR, more bits must mean higher measured fidelity. (GEAR vs
	// plain per-token quantisation is covered in internal/quant; against
	// KIVI's per-channel + residual layout GEAR can lose, as the paper's
	// Table 4 semantic scores also show.)
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	var g2, g4 float64
	var n int
	for _, s := range suite(6) {
		ref := e.RunBaseline(s)
		g2 += e.Evaluate(ref, "gear-2").Fidelity
		g4 += e.Evaluate(ref, "gear-4").Fidelity
		n++
	}
	if g2/float64(n) >= g4/float64(n) {
		t.Fatalf("GEAR-2 fidelity %v should be below GEAR-4 %v", g2/float64(n), g4/float64(n))
	}
}

func TestCodeTaskRobustToRecencyKeepers(t *testing.T) {
	// Code samples keep their completion context at the prompt tail, which
	// recent-window policies preserve — the mechanism behind code's low
	// negative share in Figure 7.
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	var codeScores, qaScores []float64
	for _, s := range suite(80) {
		if s.Task != workload.Code && s.Task != workload.SingleDocQA {
			continue
		}
		ref := e.RunBaseline(s)
		r := e.Evaluate(ref, "stream-256")
		rel := r.Score / BaseScore(s.Task)
		if s.Task == workload.Code {
			codeScores = append(codeScores, rel)
		} else {
			qaScores = append(qaScores, rel)
		}
		if len(codeScores) >= 5 && len(qaScores) >= 5 {
			break
		}
	}
	if len(codeScores) < 3 || len(qaScores) < 3 {
		t.Skip("not enough samples drawn")
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(codeScores) <= avg(qaScores) {
		t.Fatalf("code relative score %v should beat QA %v under eviction", avg(codeScores), avg(qaScores))
	}
}

func TestSemanticScore(t *testing.T) {
	if s := SemanticScore([]int{1, 2, 3}, []int{1, 2, 3}, 10); s < 99.99 {
		t.Fatalf("identical sequences score %v", s)
	}
	if s := SemanticScore([]int{1, 1}, []int{2, 2}, 10); s != 0 {
		t.Fatalf("disjoint sequences score %v", s)
	}
	if s := SemanticScore([]int{1, 2}, []int{1, 3}, 10); s <= 0 || s >= 100 {
		t.Fatalf("partial overlap score %v", s)
	}
}

func TestSemanticScorePanicsOnBadVocab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SemanticScore(nil, nil, 0)
}

func TestBaseScoresMatchTable7Scale(t *testing.T) {
	if BaseScore(workload.Code) != 97 {
		t.Fatal("code base should match Table 7 baseline")
	}
	if BaseScore(workload.SingleDocQA) != 52 || BaseScore(workload.MultiDocQA) != 52 {
		t.Fatal("QA base should match Table 7 baseline")
	}
	if BaseScore(workload.Summarization) != 32 {
		t.Fatal("summarization base should match Table 7 baseline")
	}
}

// TestEvaluateSparse pins the sparse decode plane's scoring: at topK >= pages
// it is the dense baseline (perfect agreement and recall, selection counters
// full); at a tight budget it reports real sparsity — recall strictly inside
// (0,1), fewer pages selected than resident — while the lossless cache keeps
// retention and fidelity at 1.
func TestEvaluateSparse(t *testing.T) {
	m := tinyModel()
	e := NewEvaluator(m, Config{ContSteps: 8})
	s := suite(3)[0]
	ref := e.RunBaseline(s)

	loose := e.EvaluateSparse(ref, 1<<20, 4)
	if loose.Agreement != 1 {
		t.Fatalf("topK >= pages agreement = %v, want 1 (bit-identical to dense)", loose.Agreement)
	}
	if loose.Recall != 1 {
		t.Fatalf("topK >= pages recall = %v, want 1", loose.Recall)
	}
	if loose.PagesSelected == 0 || loose.PagesSelected != loose.PagesTotal {
		t.Fatalf("topK >= pages counters (sel=%d, tot=%d), want full selection", loose.PagesSelected, loose.PagesTotal)
	}

	tight := e.EvaluateSparse(ref, 2, 4)
	if tight.Retention != 1 || tight.Fidelity < 0.999 {
		t.Fatalf("sparse retention/fidelity = %v/%v, want 1/1 (cache is lossless)", tight.Retention, tight.Fidelity)
	}
	if tight.Recall <= 0 || tight.Recall >= 1 {
		t.Fatalf("tight recall = %v, want inside (0,1)", tight.Recall)
	}
	if tight.PagesSelected == 0 || tight.PagesSelected >= tight.PagesTotal {
		t.Fatalf("tight counters (sel=%d, tot=%d) show no real sparsity", tight.PagesSelected, tight.PagesTotal)
	}
	if tight.Recall > loose.Recall {
		t.Fatalf("recall %v at topK=2 exceeds %v at full budget", tight.Recall, loose.Recall)
	}
	// Prefill is dense into a lossless cache, so the prefill hidden state is
	// the reference's whatever the budget: the continuation must not leak in.
	for _, r := range []SparseResult{loose, tight} {
		if r.HiddenSim < 1-1e-9 {
			t.Fatalf("%s hidden similarity = %v, want 1 (prefill is dense and lossless)", r.Method, r.HiddenSim)
		}
	}
}

// TestEvaluateDeterministic pins that an evaluation depends on nothing but
// its reference and method: three Evaluate calls on one reference give
// bit-identical Results for every method, Fidelity's sum over the critical
// positions among them.
func TestEvaluateDeterministic(t *testing.T) {
	e := NewEvaluator(tinyModel(), Config{ContSteps: 4})
	ref := e.RunBaseline(suite(2)[1])
	bits := func(r Result) [7]uint64 {
		return [7]uint64{math.Float64bits(r.Retention), math.Float64bits(r.Fidelity), math.Float64bits(r.Agreement),
			math.Float64bits(r.F1), math.Float64bits(r.EditSim), math.Float64bits(r.HiddenSim), math.Float64bits(r.Score)}
	}
	for _, name := range append(compress.Names(), "int8", "int4") {
		want := bits(e.Evaluate(ref, name))
		for i := 0; i < 2; i++ {
			if got := bits(e.Evaluate(ref, name)); got != want {
				t.Fatalf("%s: evaluation %d gave %x, the first %x", name, i+2, got, want)
			}
		}
	}
}
