package router

import (
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

func estFor(method string) *perf.Estimator {
	return perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet(method), 1)
}

// buildPredictors trains the suite for the methods in play with the
// program's one trainer, under the facade cluster's convention: the training
// trace drawn from seed, the length features salted with seed+7.
func buildPredictors(t *testing.T, methods []string) Predictors {
	t.Helper()
	const seed = 33
	ests := make([]*perf.Estimator, len(methods))
	for i, name := range methods {
		ests[i] = estFor(name)
	}
	return Train(workload.SampleShareGPT(workload.DefaultShareGPT(1500), seed), gen.Default(), ests, seed, seed+7)
}

// mixedCluster is the paper's Section 5.4 setup: one FP16 GPU + three
// compressed GPUs.
func mixedCluster(method string) *serving.Cluster {
	gpus := []serving.GPUConfig{
		{ID: 0, Est: estFor("fp16")},
	}
	for i := 1; i < 4; i++ {
		gpus = append(gpus, serving.GPUConfig{ID: i, Est: estFor(method)})
	}
	return &serving.Cluster{GPUs: gpus, BatchCap: 64, LM: gen.Default(), Seed: 3}
}

// uniformCluster is the paper's baseline: four GPUs all running the method.
func uniformCluster(method string) *serving.Cluster {
	var gpus []serving.GPUConfig
	for i := 0; i < 4; i++ {
		gpus = append(gpus, serving.GPUConfig{ID: i, Est: estFor(method)})
	}
	return &serving.Cluster{GPUs: gpus, BatchCap: 64, LM: gen.Default(), Seed: 3}
}

func trace(n int, rps float64) []workload.Request {
	cfg := workload.DefaultShareGPT(n)
	cfg.RPS = rps
	return workload.SampleShareGPT(cfg, 77)
}

func TestTable8PolicyOrdering(t *testing.T) {
	// Table 8: w/Both < w/Throughput < Baseline in mean E2E latency, and
	// w/Length alone does not beat the baseline meaningfully.
	method := "kivi-4"
	preds := buildPredictors(t, []string{"fp16", method})
	reqs := trace(400, 10)

	baseOut, err := uniformCluster(method).Run(reqs, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	thrOut, err := mixedCluster(method).Run(reqs, WithThroughput{P: preds})
	if err != nil {
		t.Fatal(err)
	}
	lenOut, err := mixedCluster(method).Run(reqs, WithLength{P: preds})
	if err != nil {
		t.Fatal(err)
	}
	bothOut, err := mixedCluster(method).Run(reqs, WithBoth{P: preds})
	if err != nil {
		t.Fatal(err)
	}

	base := serving.MeanE2E(baseOut)
	thr := serving.MeanE2E(thrOut)
	length := serving.MeanE2E(lenOut)
	both := serving.MeanE2E(bothOut)

	if thr >= base {
		t.Fatalf("w/Throughput %v should beat baseline %v", thr, base)
	}
	if both >= thr {
		t.Fatalf("w/Both %v should beat w/Throughput %v", both, thr)
	}
	if length < both {
		t.Fatalf("w/Length alone %v should not be the best policy (w/Both %v)", length, both)
	}
	// The paper's speedup bands: w/Both 1.45–1.80×; allow a loose band.
	if base/both < 1.1 {
		t.Fatalf("w/Both speedup %v too small", base/both)
	}
}

func TestWithLengthHerdsToFP16(t *testing.T) {
	// Queue-blind length routing sends nearly everything to the FP16 GPU —
	// the mechanism behind its poor Table 8 showing.
	preds := buildPredictors(t, []string{"fp16", "stream-512"})
	out, err := mixedCluster("stream-512").Run(trace(150, 10), WithLength{P: preds})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, o := range out {
		counts[o.GPU]++
	}
	// Short-context requests predict near-identical lengths everywhere, so
	// some scatter remains (which is why the paper measures w/Length at
	// only 0.83–1.03×) — but FP16 must draw a heavy plurality.
	if counts[0] < len(out)/2 {
		t.Fatalf("w/Length routed only %d/%d to FP16: %v", counts[0], len(out), counts)
	}
	if compressed := len(out) - counts[0]; compressed >= counts[0] {
		t.Fatalf("FP16 should draw the majority under w/Length: %v", counts)
	}
}

func TestPolicyNames(t *testing.T) {
	preds := Predictors{}
	names := map[string]serving.Router{
		"baseline":     Baseline{},
		"w/throughput": WithThroughput{P: preds},
		"w/length":     WithLength{P: preds},
		"w/both":       WithBoth{P: preds},
	}
	for want, r := range names {
		if r.Name() != want {
			t.Fatalf("router name %q != %q", r.Name(), want)
		}
	}
}

func TestBaselineBalances(t *testing.T) {
	out, err := uniformCluster("fp16").Run(trace(200, 20), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, o := range out {
		counts[o.GPU]++
	}
	for id := 0; id < 4; id++ {
		if counts[id] < 20 {
			t.Fatalf("baseline imbalance: %v", counts)
		}
	}
}

// TestWithLengthHysteresisSpreadsBurst is the herding regression test: on a
// homogeneous fleet every engine predicts the same response length, so the
// strict queue-blind argmin sends an entire burst of simultaneous arrivals
// to engine 0. The hysteresis band treats near-tied predictions as
// equivalent and breaks them on live load, spreading the burst — while
// Hysteresis == 0 must preserve the paper's strict behaviour bit-for-bit.
func TestWithLengthHysteresisSpreadsBurst(t *testing.T) {
	preds := buildPredictors(t, []string{"fp16"})
	burst := trace(40, 0) // RPS 0: all requests arrive at t=0 — the worst-case herd
	strict, err := uniformCluster("fp16").Run(burst, WithLength{P: preds})
	if err != nil {
		t.Fatal(err)
	}
	strictCounts := map[int]int{}
	for _, o := range strict {
		strictCounts[o.GPU]++
	}
	if strictCounts[0] != len(strict) {
		t.Fatalf("strict w/Length should herd the whole burst to engine 0: %v", strictCounts)
	}

	spread, err := uniformCluster("fp16").Run(burst, WithLength{P: preds, Hysteresis: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, o := range spread {
		counts[o.GPU]++
	}
	for id := 0; id < 4; id++ {
		if counts[id] == 0 {
			t.Fatalf("hysteresis left engine %d idle under a burst: %v", id, counts)
		}
	}
	if counts[0] == len(spread) {
		t.Fatalf("hysteresis still herded everything to engine 0: %v", counts)
	}
}
