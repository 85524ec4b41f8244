package experiments

import (
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
)

// Appendix runners (Figures 8-10 and 15-18, Tables 9-11): the paper repeats
// its analyses on Mistral-7B and LLaMA-13B to show generality. Throughput
// variants differ through the models' real shapes (GQA KV width, layer
// count); accuracy variants differ through a different tiny-model weight
// seed standing in for the family (EXPERIMENTS.md notes that per-family
// length-shift differences beyond this are not modelled).

// MistralSeed is the tiny-model weight seed standing in for the Mistral
// family in appendix accuracy analyses.
const MistralSeed = 7777

// Fig8Mistral reproduces Figure 8: the engine comparison and method sweeps
// on Mistral-7B.
func Fig8Mistral(batches, promptLens []int) []Figure {
	cfg := ThroughputConfig{HW: gpu.A6000, Model: model.Mistral7B}
	figs := []Figure{
		Fig1EngineDecode(cfg, 256, batches),
		Fig1EngineDecode(cfg, 2048, batches),
	}
	figs = append(figs, Fig1Prefill(cfg, batches, promptLens)...)
	figs = append(figs, Fig1Decode(cfg, batches, promptLens)...)
	return figs
}

// Fig9SnapKV reproduces Figure 9: LLaMA-7B throughput with SnapKV added to
// the method set.
func Fig9SnapKV(batches, lens []int) []Figure {
	cfg := ThroughputConfig{}.filled()
	methods := append(append([]string(nil), paperMethods...), "snapkv-512")
	_ = batches
	return []Figure{
		cfg.byMethod(Figure{Title: "Fig9(a-b) prefill with SnapKV", XLabel: "prompt", YLabel: "tokens/s"}, methods, 1, lens, prefillAt1),
		cfg.byMethod(Figure{Title: "Fig9(c-d) decode with SnapKV", XLabel: "kv", YLabel: "tokens/s"}, methods, 1, lens, decodeAt1),
	}
}

// Fig10LLaMA13B reproduces Figure 10: the full Figure-1 suite on LLaMA-13B.
func Fig10LLaMA13B(batches, lens []int) []Figure {
	cfg := ThroughputConfig{HW: gpu.A6000, Model: model.LLaMA2_13B}
	figs := []Figure{
		Fig1EngineDecode(cfg, 256, batches),
		Fig1StreamSpeedup(cfg, 1024, batches),
	}
	figs = append(figs, Fig1Prefill(cfg, batches, lens)...)
	figs = append(figs, Fig1Decode(cfg, batches, lens)...)
	return figs
}

// Table9MistralShift reproduces Table 9: the Table-5 length-shift analysis
// tagged for Mistral-7B (a distinct workload draw; see the package comment
// for the modelling caveat).
func Table9MistralShift(n int, seed uint64) Table {
	t := Table5Shift(n, seed^0x4d7) // distinct Mistral draw
	t.Title = "Table 9: length variation ratios (Mistral-7B)"
	return t
}

// Fig15MistralLengthDistribution reproduces Figure 15 (Mistral's Figure 4).
func Fig15MistralLengthDistribution(n int, seed uint64) []Figure {
	figs := Fig4LengthDistribution(n, seed^0xa57a)
	for i := range figs {
		figs[i].Title = "Fig15 (Mistral) " + figs[i].Title
	}
	return figs
}

// Fig16MistralE2E reproduces Figure 16: the end-to-end latency CDF with
// Mistral-7B's real shapes (GQA narrows KV traffic, so curves sit closer
// together than LLaMA's).
func Fig16MistralE2E(n int, seed uint64) Figure {
	cfg := ThroughputConfig{HW: gpu.A6000, Model: model.Mistral7B}
	return e2eCDF(cfg, "Fig16: Mistral-7B CDF of end-to-end latency (s), batch 1", n, seed)
}

// MistralNegativeStudy runs the negative-sample pipeline with the Mistral
// family seed — Figures 17-18 and Table 11.
func MistralNegativeStudy(n, promptLen int, seed uint64) *NegativeStudy {
	return RunNegativeStudy(n, promptLen, seed^MistralSeed)
}

// FormatAll renders a figure list.
func FormatAll(figs []Figure) string {
	out := ""
	for _, f := range figs {
		out += f.Format() + "\n"
	}
	return out
}
