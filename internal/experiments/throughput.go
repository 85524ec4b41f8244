package experiments

import (
	"fmt"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
)

// ThroughputConfig selects the hardware/model under test; the zero value is
// filled with the paper's main setting (LLaMA-7B on A6000).
type ThroughputConfig struct {
	HW    gpu.Hardware
	Model model.Config
}

func (c ThroughputConfig) filled() ThroughputConfig {
	if c.HW.Name == "" {
		c.HW = gpu.A6000
	}
	if c.Model.Name == "" {
		c.Model = model.LLaMA2_7B
	}
	return c
}

func (c ThroughputConfig) est(eng engine.Profile, method string, tp int) *perf.Estimator {
	return perf.MustNew(c.HW, c.Model, eng, compress.MustGet(method), tp)
}

// paperMethods is the method set of Figures 1-3 and Tables 3, 6 and 8.
var paperMethods = []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512"}

// sweep is one curve: y at every x.
func sweep(label string, xs []int, y func(x int) float64) Series {
	s := Series{Label: label}
	for _, x := range xs {
		s.X = append(s.X, float64(x))
		s.Y = append(s.Y, y(x))
	}
	return s
}

// byMethod adds to f one curve per method, labelled with its alias: y of the
// method's LMDeploy estimator at TP degree tp, at every x.
func (c ThroughputConfig) byMethod(f Figure, methods []string, tp int, xs []int, y func(est *perf.Estimator, x int) float64) Figure {
	for _, m := range methods {
		est := c.est(engine.LMDeploy, m, tp)
		f.Series = append(f.Series, sweep(compress.MustGet(m).Alias, xs, func(x int) float64 { return y(est, x) }))
	}
	return f
}

// fitDecode is est's decode throughput at batch b over kv tokens, or 0 where
// the KV cache does not fit in memory (the figures' OOM mark).
func fitDecode(est *perf.Estimator, b, kv int) float64 {
	if !est.Fits(b, kv) {
		return 0
	}
	return est.DecodeThroughput(b, kv)
}

// Fig1EngineDecode reproduces Figure 1 (a-b): FP16 decode throughput across
// TRL, TRL+FA, and LMDeploy, over batch sizes at a fixed KV length.
func Fig1EngineDecode(cfg ThroughputConfig, kvLen int, batches []int) Figure {
	cfg = cfg.filled()
	f := Figure{
		Title:  fmt.Sprintf("Fig1(a-b) decode throughput, %s, KV %d", cfg.Model.Name, kvLen),
		XLabel: "batch", YLabel: "tokens/s",
	}
	for _, eng := range engine.All() {
		est := cfg.est(eng, "fp16", 1)
		f.Series = append(f.Series, sweep(eng.Name, batches, func(b int) float64 { return est.DecodeThroughput(b, kvLen) }))
	}
	return f
}

// Fig1StreamSpeedup reproduces Figure 1 (c-d): StreamingLLM's decode
// speedup over FP16 measured on TRL vs LMDeploy.
func Fig1StreamSpeedup(cfg ThroughputConfig, kvLen int, batches []int) Figure {
	cfg = cfg.filled()
	f := Figure{
		Title:  fmt.Sprintf("Fig1(c-d) StreamingLLM decode speedup, KV %d", kvLen),
		XLabel: "batch", YLabel: "speedup vs FP16",
	}
	for _, eng := range []engine.Profile{engine.TRL, engine.LMDeploy} {
		fp := cfg.est(eng, "fp16", 1)
		st := cfg.est(eng, "stream-512", 1)
		f.Series = append(f.Series, sweep(eng.Name, batches, func(b int) float64 {
			return st.DecodeThroughput(b, kvLen) / fp.DecodeThroughput(b, kvLen)
		}))
	}
	return f
}

// Fig1Prefill reproduces Figure 1 (e-h): prefill throughput per method.
// Sweep either batch (fixed prompt) or prompt length (fixed batch).
func Fig1Prefill(cfg ThroughputConfig, batches []int, promptLens []int) []Figure {
	cfg = cfg.filled()
	var figs []Figure
	if len(batches) > 1 {
		prompt := promptLens[0]
		f := Figure{Title: fmt.Sprintf("Fig1(e,g) prefill thr vs batch, prompt %d", prompt), XLabel: "batch", YLabel: "tokens/s"}
		figs = append(figs, cfg.byMethod(f, paperMethods, 1, batches, func(est *perf.Estimator, b int) float64 {
			return est.PrefillThroughput(b, prompt)
		}))
	}
	if len(promptLens) > 1 {
		f := Figure{Title: "Fig1(f,h) prefill thr vs prompt length, batch 1", XLabel: "prompt", YLabel: "tokens/s"}
		figs = append(figs, cfg.byMethod(f, paperMethods, 1, promptLens, prefillAt1))
	}
	return figs
}

// Fig1Decode reproduces Figure 1 (i-l): decode throughput per method, with
// OOM detection at heavy settings (quant methods vanish at KV 8192).
func Fig1Decode(cfg ThroughputConfig, batches []int, kvLens []int) []Figure {
	cfg = cfg.filled()
	var figs []Figure
	if len(batches) > 1 {
		kv := kvLens[0]
		f := Figure{Title: fmt.Sprintf("Fig1(i,k) decode thr vs batch, KV %d", kv), XLabel: "batch", YLabel: "tokens/s"}
		figs = append(figs, cfg.byMethod(f, paperMethods, 1, batches, func(est *perf.Estimator, b int) float64 {
			return fitDecode(est, b, kv)
		}))
	}
	if len(kvLens) > 1 {
		f := Figure{Title: "Fig1(j,l) decode thr vs KV length, batch 1", XLabel: "kv", YLabel: "tokens/s"}
		figs = append(figs, cfg.byMethod(f, paperMethods, 1, kvLens, func(est *perf.Estimator, kv int) float64 {
			return fitDecode(est, 1, kv)
		}))
	}
	return figs
}

// prefillAt1 and decodeAt1 are the batch-1 throughputs the length sweeps of
// Figures 1, 2 and 9 plot.
func prefillAt1(est *perf.Estimator, p int) float64 { return est.PrefillThroughput(1, p) }
func decodeAt1(est *perf.Estimator, kv int) float64 { return est.DecodeThroughput(1, kv) }

// Fig2H800 reproduces Figure 2: LLaMA-70B on H800 (TP=2), prefill and
// decode sweeps over prompt/KV length at batch 1.
func Fig2H800(promptLens, kvLens []int) []Figure {
	cfg := ThroughputConfig{HW: gpu.H800, Model: model.LLaMA2_70B}
	return []Figure{
		cfg.byMethod(Figure{Title: "Fig2(a) LLaMA-70B on H800 prefill, batch 1", XLabel: "prompt", YLabel: "tokens/s"},
			paperMethods, 2, promptLens, prefillAt1),
		cfg.byMethod(Figure{Title: "Fig2(b) LLaMA-70B on H800 decode, batch 1", XLabel: "kv", YLabel: "tokens/s"},
			paperMethods, 2, kvLens, decodeAt1),
	}
}

// Fig3AttentionTime reproduces Figure 3: attention-layer execution time per
// method, for prefill (vs prompt length) and decode (cumulative over 1,024
// generated tokens, vs starting KV length), batch 1.
func Fig3AttentionTime(cfg ThroughputConfig, lens []int) []Figure {
	cfg = cfg.filled()
	return []Figure{
		cfg.byMethod(Figure{Title: "Fig3(a) prefill attention time, batch 1", XLabel: "prompt", YLabel: "seconds"},
			paperMethods, 1, lens, func(est *perf.Estimator, l int) float64 { return est.AttentionPrefillTime(1, l) }),
		cfg.byMethod(Figure{Title: "Fig3(b) decode attention time (1024 steps), batch 1", XLabel: "kv", YLabel: "seconds"},
			paperMethods, 1, lens, func(est *perf.Estimator, l int) float64 { return est.AttentionDecodeTimeCumulative(1, l, 1024) }),
	}
}

// Table3TP reproduces Table 3: relative prefill and decode speedups of each
// method vs FP16 at TP = 1, 2, 4 (batch 4; prompt/KV 1024/2048 as in the
// paper's synthetic setting).
func Table3TP(cfg ThroughputConfig) Table {
	cfg = cfg.filled()
	t := Table{
		Title:   fmt.Sprintf("Table 3: relative speedup under tensor parallelism (%s)", cfg.Model.Name),
		Columns: []string{"FP16 (T/S)", "K-4", "G-4", "H2O", "Stream"},
	}
	stages := []struct {
		name string
		thr  func(*perf.Estimator) float64
	}{
		{"prefill", func(est *perf.Estimator) float64 { return est.PrefillThroughput(4, 1024) }},
		{"decode", func(est *perf.Estimator) float64 { return est.DecodeThroughput(4, 2048) }},
	}
	for _, stage := range stages {
		for _, tp := range []int{1, 2, 4} {
			base := stage.thr(cfg.est(engine.LMDeploy, "fp16", tp))
			row := TableRow{Label: fmt.Sprintf("%s TP=%d", stage.name, tp), Cells: []string{cell(base)}}
			for _, m := range paperMethods[1:] {
				row.Cells = append(row.Cells, speedupCell(stage.thr(cfg.est(engine.LMDeploy, m, tp))/base))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// AppendixTPFigures reproduces Figures 11-14: per-method throughput across
// TP degrees for an arbitrary model, split into quant and sparse panels.
func AppendixTPFigures(cfg ThroughputConfig, batches []int) []Figure {
	cfg = cfg.filled()
	var figs []Figure
	for _, group := range [][]string{{"fp16", "kivi-4", "gear-4"}, {"fp16", "h2o-512", "stream-512"}} {
		f := Figure{
			Title:  fmt.Sprintf("Fig11-14 decode thr vs batch (%s), TP sweep: %v", cfg.Model.Name, group[1:]),
			XLabel: "batch", YLabel: "tokens/s",
		}
		for _, tp := range []int{1, 2, 4} {
			for _, m := range group {
				est := cfg.est(engine.LMDeploy, m, tp)
				label := fmt.Sprintf("%s-TP%d", compress.MustGet(m).Alias, tp)
				f.Series = append(f.Series, sweep(label, batches, func(b int) float64 { return est.DecodeThroughput(b, 1024) }))
			}
		}
		figs = append(figs, f)
	}
	return figs
}
