package serving

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

func testGPU(id int, method string) GPUConfig {
	return GPUConfig{
		ID:  id,
		Est: perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet(method), 1),
	}
}

// leastLoaded is a minimal router for tests.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }
func (leastLoaded) Route(req workload.Request, views []GPUView) int {
	best, load := 0, views[0].Wait()+1e-6*views[0].QueuedTokens
	for i, v := range views[1:] {
		l := v.Wait() + 1e-6*v.QueuedTokens
		if l < load {
			best, load = i+1, l
		}
	}
	return best
}

func testTrace(n int, rps float64) []workload.Request {
	cfg := workload.DefaultShareGPT(n)
	cfg.RPS = rps
	return workload.SampleShareGPT(cfg, 5)
}

func testCluster(methods ...string) *Cluster {
	var gpus []GPUConfig
	for i, m := range methods {
		gpus = append(gpus, testGPU(i, m))
	}
	return &Cluster{GPUs: gpus, BatchCap: 8, LM: gen.Default(), Seed: 1}
}

func TestRunServesEveryRequest(t *testing.T) {
	c := testCluster("fp16", "fp16")
	reqs := testTrace(100, 10)
	out, err := c.Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("served %d of 100", len(out))
	}
	for _, o := range out {
		if o.Finish <= o.Req.ArrivalTime {
			t.Fatalf("req %d finished before arriving", o.Req.ID)
		}
		if o.RespLen < 1 {
			t.Fatalf("req %d has empty response", o.Req.ID)
		}
		if o.E2E() <= 0 {
			t.Fatalf("req %d non-positive E2E", o.Req.ID)
		}
		// TTFT sits strictly between arrival and finish; TBOT is positive
		// for multi-token responses.
		if o.TTFT() <= 0 || o.FirstToken > o.Finish {
			t.Fatalf("req %d bad TTFT: %+v", o.Req.ID, o)
		}
		if o.RespLen > 1 && o.TBOT() <= 0 {
			t.Fatalf("req %d bad TBOT", o.Req.ID)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	reqs := testTrace(60, 10)
	a, err := testCluster("fp16", "kivi-4").Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := testCluster("fp16", "kivi-4").Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}

func TestGPUsShareLoad(t *testing.T) {
	c := testCluster("fp16", "fp16", "fp16", "fp16")
	out, err := c.Run(testTrace(200, 20), leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, o := range out {
		counts[o.GPU]++
	}
	for id := 0; id < 4; id++ {
		if counts[id] < 20 {
			t.Fatalf("gpu %d underused: %v", id, counts)
		}
	}
}

func TestHigherLoadHigherLatency(t *testing.T) {
	light, err := testCluster("fp16", "fp16").Run(testTrace(150, 2), leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := testCluster("fp16", "fp16").Run(testTrace(150, 40), leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	if MeanE2E(heavy) <= MeanE2E(light) {
		t.Fatalf("queueing should raise latency: light=%v heavy=%v", MeanE2E(light), MeanE2E(heavy))
	}
}

func TestBatchingHelpsThroughput(t *testing.T) {
	reqs := testTrace(150, 25)
	batched := &Cluster{GPUs: []GPUConfig{testGPU(0, "fp16")}, BatchCap: 8, LM: gen.Default(), Seed: 1}
	serial := &Cluster{GPUs: []GPUConfig{testGPU(0, "fp16")}, BatchCap: 1, LM: gen.Default(), Seed: 1}
	bOut, err := batched.Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	sOut, err := serial.Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	if MeanE2E(bOut) >= MeanE2E(sOut) {
		t.Fatalf("batching should reduce latency under load: batched=%v serial=%v", MeanE2E(bOut), MeanE2E(sOut))
	}
}

func TestCompressionLengthensResponses(t *testing.T) {
	reqs := testTrace(200, 5)
	fpOut, err := testCluster("fp16").Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	k2Out, err := testCluster("kivi-2").Run(reqs, leastLoaded{})
	if err != nil {
		t.Fatal(err)
	}
	var fpLen, kLen int
	for i := range fpOut {
		fpLen += fpOut[i].RespLen
		kLen += k2Out[i].RespLen
	}
	if kLen <= fpLen {
		t.Fatalf("compression should lengthen responses on average: fp=%d k2=%d", fpLen, kLen)
	}
}

func TestEmptyClusterErrors(t *testing.T) {
	c := &Cluster{LM: gen.Default()}
	if _, err := c.Run(testTrace(5, 1), leastLoaded{}); err == nil {
		t.Fatal("expected error")
	}
}

type badRouter struct{ answer int }

func (badRouter) Name() string                            { return "bad" }
func (r badRouter) Route(workload.Request, []GPUView) int { return r.answer }

func TestInvalidRouteErrors(t *testing.T) {
	// Regression: any out-of-range router answer — negative, == len(GPUs),
	// or far beyond — must be rejected, not index out of bounds.
	for _, bad := range []int{-1, -99, 1, 99} {
		c := testCluster("fp16")
		if _, err := c.Run(testTrace(5, 1), badRouter{answer: bad}); err == nil {
			t.Fatalf("router answer %d: expected routing error", bad)
		}
	}
}

func TestE2EsAndMean(t *testing.T) {
	out := []Outcome{
		{Req: workload.Request{ArrivalTime: 0}, Finish: 2},
		{Req: workload.Request{ArrivalTime: 1}, Finish: 5},
	}
	es := E2Es(out)
	if es[0] != 2 || es[1] != 4 {
		t.Fatalf("e2es = %v", es)
	}
	if MeanE2E(out) != 3 {
		t.Fatalf("mean = %v", MeanE2E(out))
	}
	if MeanE2E(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}
