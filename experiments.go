package rethinkkv

import (
	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/experiments"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/predictor"
)

// Figure is one line chart's worth of experiment data (x values plus named
// series), with a plain-text Format renderer.
type Figure = experiments.Figure

// Table is one paper table (title, columns, labelled rows), with a
// plain-text Format renderer.
type Table = experiments.Table

// NegativeStudy bundles the shared negative-sample evaluation pass behind
// Figures 6-7 and Table 7.
type NegativeStudy = experiments.NegativeStudy

// Advantage is the throughput-analysis advantage map of a method vs FP16
// over a (batch, length) grid.
type Advantage = predictor.Advantage

// FormatAll renders a slice of figures one after another.
func FormatAll(figs []Figure) string { return experiments.FormatAll(figs) }

// ThroughputStudy regenerates the paper's throughput experiments
// (Figures 1-3, Table 3, appendix TP figures) for one hardware/model pair.
type ThroughputStudy struct {
	cfg experiments.ThroughputConfig
}

// NewThroughputStudy selects the hardware and model under test. Empty names
// select the paper's main setting (LLaMA-2-7B on A6000).
func NewThroughputStudy(modelName, hwName string) (*ThroughputStudy, error) {
	var cfg experiments.ThroughputConfig
	if modelName != "" {
		mc, err := resolveModel(modelName)
		if err != nil {
			return nil, err
		}
		cfg.Model = mc
	}
	if hwName != "" {
		hw, err := resolveHardware(hwName)
		if err != nil {
			return nil, err
		}
		cfg.HW = hw
	}
	return &ThroughputStudy{cfg: cfg}, nil
}

// EngineDecode reproduces Figure 1 (a-b): FP16 decode throughput across
// engines, over batch sizes at a fixed KV length.
func (s *ThroughputStudy) EngineDecode(kvLen int, batches []int) Figure {
	return experiments.Fig1EngineDecode(s.cfg, kvLen, batches)
}

// StreamSpeedup reproduces Figure 1 (c-d): StreamingLLM's speedup by engine.
func (s *ThroughputStudy) StreamSpeedup(kvLen int, batches []int) Figure {
	return experiments.Fig1StreamSpeedup(s.cfg, kvLen, batches)
}

// PrefillSweep reproduces Figure 1 (e-h): per-method prefill throughput.
func (s *ThroughputStudy) PrefillSweep(batches, promptLens []int) []Figure {
	return experiments.Fig1Prefill(s.cfg, batches, promptLens)
}

// DecodeSweep reproduces Figure 1 (i-l): per-method decode throughput.
func (s *ThroughputStudy) DecodeSweep(batches, kvLens []int) []Figure {
	return experiments.Fig1Decode(s.cfg, batches, kvLens)
}

// AttentionTime reproduces Figure 3: attention-layer time by method.
func (s *ThroughputStudy) AttentionTime(lens []int) []Figure {
	return experiments.Fig3AttentionTime(s.cfg, lens)
}

// TensorParallelTable reproduces Table 3: compression speedups across TP
// degrees.
func (s *ThroughputStudy) TensorParallelTable() Table {
	return experiments.Table3TP(s.cfg)
}

// TensorParallelFigures reproduces the appendix TP sweeps (Figures 11-14).
func (s *ThroughputStudy) TensorParallelFigures(batches []int) []Figure {
	return experiments.AppendixTPFigures(s.cfg, batches)
}

// Fig2H800 reproduces Figure 2: LLaMA-2-70B on H800 across methods.
func Fig2H800(promptLens, kvLens []int) []Figure {
	return experiments.Fig2H800(promptLens, kvLens)
}

// Fig8Mistral reproduces appendix Figure 8: Mistral-7B prefill throughput.
func Fig8Mistral(batches, promptLens []int) []Figure {
	return experiments.Fig8Mistral(batches, promptLens)
}

// Fig9SnapKV reproduces appendix Figure 9: SnapKV decode throughput.
func Fig9SnapKV(batches, lens []int) []Figure {
	return experiments.Fig9SnapKV(batches, lens)
}

// Fig10LLaMA13B reproduces appendix Figure 10: LLaMA-2-13B decode sweeps.
func Fig10LLaMA13B(batches, lens []int) []Figure {
	return experiments.Fig10LLaMA13B(batches, lens)
}

// Table4Verbosity reproduces Table 4: semantic score and length increase on
// verbose requests, from real tiny-model generations.
func Table4Verbosity(nSamples int, seed uint64) Table {
	return experiments.Table4Verbosity(nSamples, seed)
}

// Table5Shift reproduces Table 5: ≥50% response-length-shift ratios.
func Table5Shift(n int, seed uint64) Table {
	return experiments.Table5Shift(n, seed)
}

// Fig4LengthDistribution reproduces Figure 4: response length-difference
// distributions per method.
func Fig4LengthDistribution(n int, seed uint64) []Figure {
	return experiments.Fig4LengthDistribution(n, seed)
}

// Fig5E2ECDF reproduces Figure 5: the end-to-end latency CDF per method.
func Fig5E2ECDF(n int, seed uint64) Figure {
	return experiments.Fig5E2ECDF(n, seed)
}

// Table9MistralShift reproduces appendix Table 9: length shifts on Mistral.
func Table9MistralShift(n int, seed uint64) Table {
	return experiments.Table9MistralShift(n, seed)
}

// Fig15MistralLengthDistribution reproduces appendix Figure 15.
func Fig15MistralLengthDistribution(n int, seed uint64) []Figure {
	return experiments.Fig15MistralLengthDistribution(n, seed)
}

// Fig16MistralE2E reproduces appendix Figure 16: Mistral E2E latency CDF.
func Fig16MistralE2E(n int, seed uint64) Figure {
	return experiments.Fig16MistralE2E(n, seed)
}

// Table6Predictors reproduces Table 6: throughput and length predictor
// accuracy per method.
func Table6Predictors(seed uint64) Table {
	return experiments.Table6Predictors(seed)
}

// Table8Router reproduces Table 8: average end-to-end latency of the four
// routing policies on a Poisson trace of n requests at rps.
func Table8Router(n int, rps float64, seed uint64) (Table, error) {
	return experiments.Table8Router(n, rps, seed)
}

// RunNegativeStudy evaluates n LongBench-like samples (prompt scale
// promptLen) under the negative-analysis method set, on the LLaMA-family
// tiny model.
func RunNegativeStudy(n, promptLen int, seed uint64) *NegativeStudy {
	return experiments.RunNegativeStudy(n, promptLen, seed)
}

// MistralNegativeStudy is RunNegativeStudy on the Mistral-family seed
// (appendix Figures 17-18, Table 11).
func MistralNegativeStudy(n, promptLen int, seed uint64) *NegativeStudy {
	return experiments.MistralNegativeStudy(n, promptLen, seed)
}

// ComputeAdvantage maps where a method beats FP16 on the paper's main
// setting (LLaMA-2-7B, A6000, LMDeploy) over a (batch, length) grid.
func ComputeAdvantage(method string, batches, lengths []int) (Advantage, error) {
	m, err := resolveMethod(method)
	if err != nil {
		return Advantage{}, err
	}
	fp := perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet("fp16"), 1)
	me := perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, m, 1)
	return predictor.ComputeAdvantage(fp, me, m.Name, batches, lengths), nil
}
