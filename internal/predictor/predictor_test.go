package predictor

import (
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/workload"
)

func estimator(method string) *perf.Estimator {
	return perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet(method), 1)
}

func TestThroughputPredictorAccuracy(t *testing.T) {
	// Table 6: the throughput predictor reaches >= 85% accuracy across all
	// methods, for both stages, on off-grid points.
	for _, m := range []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512"} {
		p := TrainThroughput(estimator(m), DefaultGrid(), 1)
		dec := p.DecodeAccuracy(TestPoints())
		pre := p.PrefillAccuracy(TestPoints())
		if dec < 0.85 {
			t.Fatalf("%s: decode accuracy %v below paper's 85%% bar", m, dec)
		}
		if pre < 0.85 {
			t.Fatalf("%s: prefill accuracy %v below paper's 85%% bar", m, pre)
		}
		// Profiling noise must make it imperfect — a predictor that equals
		// the ground truth everywhere is not measuring anything.
		if dec > 0.999 && pre > 0.999 {
			t.Fatalf("%s: suspiciously perfect accuracy", m)
		}
	}
}

func TestThroughputPredictorDeterministic(t *testing.T) {
	a := TrainThroughput(estimator("fp16"), DefaultGrid(), 3)
	b := TrainThroughput(estimator("fp16"), DefaultGrid(), 3)
	if a.PredictDecodeThroughput(3, 777) != b.PredictDecodeThroughput(3, 777) {
		t.Fatal("same seed must give same predictions")
	}
}

func TestPredictE2EMonotone(t *testing.T) {
	p := TrainThroughput(estimator("fp16"), DefaultGrid(), 4)
	if p.PredictE2E(512, 100) >= p.PredictE2E(512, 500) {
		t.Fatal("longer responses must predict longer E2E")
	}
	if p.PredictE2E(128, 100) >= p.PredictE2E(4096, 100) {
		t.Fatal("longer prompts must predict longer E2E")
	}
}

func TestLengthPredictorAccuracy(t *testing.T) {
	// Table 6: length predictor >= 85% per method (paper: 87.8–95.7%).
	lm := gen.Default()
	train := workload.SampleShareGPT(workload.DefaultShareGPT(3000), 10)
	test := workload.SampleShareGPT(workload.DefaultShareGPT(1000), 11)
	for _, name := range []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512"} {
		m := compress.MustGet(name)
		trainGens := lm.Run(train, m, 20)
		testGens := lm.Run(test, m, 21)
		p := TrainLength(train, trainGens, m, 5)
		acc := p.Accuracy(test, testGens, m, 5)
		if acc < 0.84 {
			t.Fatalf("%s: length accuracy %v below paper's ≈85%% bar", name, acc)
		}
		if acc > 0.999 {
			t.Fatalf("%s: suspiciously perfect length accuracy", name)
		}
	}
}

func TestLengthPredictorPointEstimate(t *testing.T) {
	lm := gen.Default()
	train := workload.SampleShareGPT(workload.DefaultShareGPT(2000), 12)
	m := compress.MustGet("stream-512")
	p := TrainLength(train, lm.Run(train, m, 22), m, 6)
	// Point estimates land inside the predicted bucket's range.
	for _, req := range train[:50] {
		l := p.PredictLen(req, m, 6)
		if l < 1 || l > 1024 {
			t.Fatalf("point estimate %v out of range", l)
		}
	}
	// A clearly-short request predicts a smaller length than a clearly
	// long one.
	short := workload.Request{ID: 90001, PromptLen: 100, RefLen: 20}
	long := workload.Request{ID: 90002, PromptLen: 100, RefLen: 900}
	if p.PredictLen(short, m, 6) >= p.PredictLen(long, m, 6) {
		t.Fatal("length ordering not learned")
	}
}

func TestTrainLengthPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainLength(make([]workload.Request, 2), nil, compress.MustGet("fp16"), 1)
}
