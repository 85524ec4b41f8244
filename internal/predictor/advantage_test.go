package predictor

import (
	"strings"
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
)

func advantageFor(t *testing.T, method string) Advantage {
	t.Helper()
	fp := perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet("fp16"), 1)
	me := perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet(method), 1)
	return ComputeAdvantage(fp, me, method, []int{1, 4, 16}, []int{256, 1024, 4096, 8192})
}

func TestStreamAdvantageRegion(t *testing.T) {
	a := advantageFor(t, "stream-512")
	// Observation 2: advantage appears at heavy KV settings.
	if a.Decode[2][3] <= 1.1 {
		t.Fatalf("stream at batch16/KV8192 should clearly win: %v", a.Decode[2][3])
	}
	// Speedup grows along the KV axis for fixed batch.
	for i := range a.Batches {
		if a.Decode[i][3] <= a.Decode[i][0] {
			t.Fatalf("batch %d: advantage should grow with KV length", a.Batches[i])
		}
	}
}

func TestH2OPrefillNeverAdvantageous(t *testing.T) {
	a := advantageFor(t, "h2o-512")
	for i := range a.Batches {
		for j := range a.Lengths {
			if a.Prefill[i][j] > 1 {
				t.Fatalf("H2O prefill should never beat FP16 (batch %d, len %d: %v)",
					a.Batches[i], a.Lengths[j], a.Prefill[i][j])
			}
		}
	}
	dec, pre := a.AdvantageousFraction()
	if pre != 0 {
		t.Fatalf("prefill fraction = %v", pre)
	}
	if dec <= 0 {
		t.Fatal("H2O should win somewhere in decode")
	}
}

func TestAdvantageFormat(t *testing.T) {
	a := advantageFor(t, "kivi-4")
	out := a.Format()
	if !strings.Contains(out, "kivi-4") || !strings.Contains(out, "8192") {
		t.Fatalf("format output: %q", out)
	}
}

func TestVLLMQuantSlowerThanLMDeploy(t *testing.T) {
	// Appendix A.4: the paper picks LMDeploy because its quantisation
	// kernels are efficient; on vLLM the same method loses more ground.
	vllm, err := engine.ByName("vllm")
	if err != nil {
		t.Fatal(err)
	}
	kOnLMD := perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet("kivi-4"), 1)
	kOnVLLM := perf.MustNew(gpu.A6000, model.LLaMA2_7B, vllm, compress.MustGet("kivi-4"), 1)
	fpLMD := perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet("fp16"), 1)
	fpVLLM := perf.MustNew(gpu.A6000, model.LLaMA2_7B, vllm, compress.MustGet("fp16"), 1)
	relLMD := kOnLMD.PrefillThroughput(1, 4096) / fpLMD.PrefillThroughput(1, 4096)
	relVLLM := kOnVLLM.PrefillThroughput(1, 4096) / fpVLLM.PrefillThroughput(1, 4096)
	if relVLLM >= relLMD {
		t.Fatalf("KIVI's relative prefill on vLLM (%v) should trail LMDeploy (%v)", relVLLM, relLMD)
	}
}
