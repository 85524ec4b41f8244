package experiments

import (
	"fmt"

	"rethinkkv/internal/accuracy"
	"rethinkkv/internal/compress"
	"rethinkkv/internal/core"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/stats"
	"rethinkkv/internal/workload"
)

// lengthMethods is the method set of Tables 4-5 and Figures 4-5.
var lengthMethods = []string{"kivi-4", "gear-4", "h2o-512", "stream-512"}

// Table5Shift reproduces Table 5: the fraction of samples whose response
// length shifts by ≥50% in either direction, under temperature variation
// and under each compression method (LLaMA-3.1-8B profile, 1,000 ShareGPT
// samples).
func Table5Shift(n int, seed uint64) Table {
	lm := gen.Default()
	reqs := workload.SampleShareGPT(workload.DefaultShareGPT(n), seed)
	t := Table{
		Title:   "Table 5: ratio (%) of samples with ≥50% response-length variation",
		Columns: []string{"T=0.9", "T=1.1", "KIVI", "GEAR", "H2O", "Stream"},
	}
	var shrunk, grew []string
	add := func(st gen.ShiftStats) {
		shrunk = append(shrunk, fmt.Sprintf("%.1f%%", 100*st.FracShrunk))
		grew = append(grew, fmt.Sprintf("%.1f%%", 100*st.FracGrew))
	}
	for _, temp := range []float64{0.9, 1.1} {
		add(gen.Summarize(lm.RunTemp(reqs, compress.MustGet("fp16"), temp, seed+1)))
	}
	for _, m := range lengthMethods {
		add(gen.Summarize(lm.Run(reqs, compress.MustGet(m), seed+2)))
	}
	t.Rows = append(t.Rows,
		TableRow{Label: "% samples D >= 50%", Cells: shrunk},
		TableRow{Label: "% samples D <= -50%", Cells: grew},
	)
	return t
}

// Fig4LengthDistribution reproduces Figure 4: the log-density of the
// response-length-difference distribution per method at two compression
// ratios, as (histogram, KDE) series over D in percent.
func Fig4LengthDistribution(n int, seed uint64) []Figure {
	lm := gen.Default()
	reqs := workload.SampleShareGPT(workload.DefaultShareGPT(n), seed)
	pairs := [][2]string{
		{"kivi-2", "kivi-4"},
		{"gear-2", "gear-4"},
		{"h2o-256", "h2o-512"},
		{"stream-256", "stream-512"},
	}
	var figs []Figure
	for _, pair := range pairs {
		f := Figure{
			Title:  fmt.Sprintf("Fig4 response length difference density: %s vs %s", pair[0], pair[1]),
			XLabel: "D (%)", YLabel: "density",
		}
		for _, name := range pair {
			ds := gen.Ds(lm.Run(reqs, compress.MustGet(name), seed+3))
			kde := stats.NewKDE(ds, 0)
			xs, ys := kde.Evaluate(-200, 100, 61)
			f.Series = append(f.Series, Series{Label: name, X: xs, Y: ys})
		}
		figs = append(figs, f)
	}
	return figs
}

// Fig5E2ECDF reproduces Figure 5: the CDF of end-to-end latency per method
// over the ShareGPT trace at batch 1 (prefill + per-token decode, with the
// method's own realised response lengths).
func Fig5E2ECDF(n int, seed uint64) Figure {
	return e2eCDF(ThroughputConfig{}.filled(), "Fig5: CDF of end-to-end latency (s), batch 1", n, seed)
}

// e2eCDF is the end-to-end latency CDF of Figures 5 and 16 on cfg's model and
// hardware: FP16 and every length method, each over n ShareGPT requests
// answered at the method's own response lengths, at batch 1.
func e2eCDF(cfg ThroughputConfig, title string, n int, seed uint64) Figure {
	lm := gen.Default()
	reqs := workload.SampleShareGPT(workload.DefaultShareGPT(n), seed)
	f := Figure{Title: title, XLabel: "quantile", YLabel: "latency (s)"}
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	for _, name := range append([]string{"fp16"}, lengthMethods...) {
		m := compress.MustGet(name)
		est := cfg.est(engine.LMDeploy, name, 1)
		var lats []float64
		for _, g := range lm.Run(reqs, m, seed+4) {
			lats = append(lats, est.EndToEndLatency(1, g.Request.PromptLen, g.Len))
		}
		ecdf := stats.NewECDF(lats)
		s := Series{Label: m.Alias}
		for _, q := range quantiles {
			s.X = append(s.X, q)
			s.Y = append(s.Y, ecdf.Quantile(q))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Table4Verbosity reproduces Table 4: on requests where compression
// lengthens the output, the mean semantic score (vs a sampled FP16
// reference) and the mean length increase. Semantic scores come from real
// tiny-model generations; length increases from the calibrated length
// model.
func Table4Verbosity(nSamples int, seed uint64) Table {
	lm := gen.Default()
	reqs := workload.SampleShareGPT(workload.DefaultShareGPT(500), seed)
	tiny := model.New(model.Tiny(), seed)
	t := Table{
		Title:   "Table 4: semantic score and length increase on verbose requests",
		Columns: []string{"FP16", "KIVI-4", "GEAR-4", "H2O-512", "Stream-512"},
	}
	// Semantic score: each method's greedy continuation against the FP16
	// greedy reference; the FP16 row itself is a temperature-1 sample
	// against that reference, standing in for the paper's
	// reference-quality ceiling (their FP16 scores 49.6 against ChatGPT,
	// not 100).
	prompts := workload.SampleLongBench(workload.DefaultLongBench(nSamples, 192, model.Tiny().Vocab), seed+1)
	methods := append([]string{"fp16"}, lengthMethods...)
	scores := make([]string, 0, len(methods))
	const contSteps = 24
	for _, name := range methods {
		var sum float64
		for _, s := range prompts {
			ref := greedyContinue(tiny, kvcache.NewFull(tiny.CacheShape()), s.Prompt, contSteps)
			var out []int
			if name == "fp16" {
				// The FP16 row scores 100 by construction: the reference
				// IS its greedy output. (The paper's FP16 scores 49.6
				// because its reference is ChatGPT, an external model.)
				out = ref
			} else {
				cache, err := accuracy.TinyCache(name, tiny.CacheShape())
				if err != nil {
					panic(err)
				}
				out = greedyContinue(tiny, cache, s.Prompt, contSteps)
			}
			sum += accuracy.SemanticScore(ref, out, model.Tiny().Vocab)
		}
		scores = append(scores, fmt.Sprintf("%.1f", sum/float64(len(prompts))))
	}
	t.Rows = append(t.Rows, TableRow{Label: "Semantic Score", Cells: scores})

	// Length increase on the verbose subset (requests the method
	// lengthened), as Table 4 selects.
	incs := []string{"-"}
	for _, name := range lengthMethods {
		gens := lm.Run(reqs, compress.MustGet(name), seed+5)
		var ratio float64
		var n int
		for _, g := range gens {
			if g.Len > g.Request.RefLen {
				ratio += float64(g.Len) / float64(g.Request.RefLen)
				n++
			}
		}
		incs = append(incs, fmt.Sprintf("%.2f×", ratio/float64(n)))
	}
	t.Rows = append(t.Rows, TableRow{Label: "Length Increase", Cells: incs})
	return t
}

// greedyContinue prefills prompt into cache and decodes n greedy tokens.
func greedyContinue(m *model.Model, cache kvcache.Cache, prompt []int, n int) []int {
	s, err := core.NewSession(m, cache, prompt)
	if err != nil {
		panic(err)
	}
	return s.Decode(n)
}
