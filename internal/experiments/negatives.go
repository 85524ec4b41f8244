package experiments

import (
	"fmt"

	"rethinkkv/internal/accuracy"
	"rethinkkv/internal/model"
	"rethinkkv/internal/workload"
)

// negMethods is the method set of Figures 6-7 and Table 7.
var negMethods = []string{"kivi-4", "gear-4", "h2o-512", "stream-512"}

// NegativeStudy bundles the shared evaluation pass: every sample scored
// under the baseline and every method, using real tiny-model execution.
type NegativeStudy struct {
	Samples  []workload.Sample
	Baseline []accuracy.Result
	ByMethod map[string][]accuracy.Result
}

// RunNegativeStudy evaluates n LongBench-like samples (prompt scale
// promptLen) under the negative-analysis method set.
func RunNegativeStudy(n, promptLen int, seed uint64) *NegativeStudy {
	tiny := model.New(model.Tiny(), seed)
	ev := accuracy.NewEvaluator(tiny, accuracy.Config{ContSteps: 8})
	samples := workload.SampleLongBench(workload.DefaultLongBench(n, promptLen, model.Tiny().Vocab), seed+1)
	st := &NegativeStudy{Samples: samples, ByMethod: map[string][]accuracy.Result{}}
	for _, s := range samples {
		ref := ev.RunBaseline(s)
		st.Baseline = append(st.Baseline, ev.Evaluate(ref, "fp16"))
		for _, m := range negMethods {
			st.ByMethod[m] = append(st.ByMethod[m], ev.Evaluate(ref, m))
		}
	}
	return st
}

// Fig6Thresholds reproduces Figure 6: negative-sample counts versus the
// threshold, for quantisation methods (plus their combination) and sparsity
// methods (plus theirs).
func (st *NegativeStudy) Fig6Thresholds() []Figure {
	thetas := []float64{0.02, 0.04, 0.08, 0.16, 0.32}
	xs := make([]float64, len(thetas))
	for i, th := range thetas {
		xs[i] = th * 100
	}
	groups := []struct {
		title   string
		methods [][]string
		labels  []string
	}{
		{"Fig6(a) quantisation negatives vs threshold (%)",
			[][]string{{"kivi-4"}, {"gear-4"}, {"kivi-4", "gear-4"}},
			[]string{"KIVI", "GEAR", "Quant (C)"}},
		{"Fig6(b) sparsity negatives vs threshold (%)",
			[][]string{{"h2o-512"}, {"stream-512"}, {"h2o-512", "stream-512"}},
			[]string{"H2O", "Stream", "Sparse (C)"}},
	}
	var figs []Figure
	for _, g := range groups {
		f := Figure{Title: g.title, XLabel: "threshold %", YLabel: "# negatives"}
		for i, ms := range g.methods {
			counts := accuracy.ThresholdSweep(st.Baseline, st.ByMethod, ms, thetas)
			ys := make([]float64, len(counts))
			for j, c := range counts {
				ys[j] = float64(c)
			}
			f.Series = append(f.Series, Series{Label: g.labels[i], X: xs, Y: ys})
		}
		figs = append(figs, f)
	}
	return figs
}

// Fig7TaskBreakdown reproduces Figure 7: the proportion of negative samples
// per task group for each method at the 10% threshold.
func (st *NegativeStudy) Fig7TaskBreakdown() Table {
	t := Table{
		Title:   "Fig7: negative-sample proportion by task group (θ=10%)",
		Columns: []string{"Summarization", "QA", "Code", "Few shot", "Synthetic"},
	}
	for _, m := range negMethods {
		set := accuracy.CollectNegatives(st.Baseline, st.ByMethod, []string{m}, 0.10)
		bd := accuracy.TaskBreakdown(set, st.Samples)
		row := TableRow{Label: fmt.Sprintf("%s (n=%d)", m, len(set.IDs))}
		for _, g := range t.Columns {
			row.Cells = append(row.Cells, fmt.Sprintf("%.1f%%", 100*bd[g]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table7NegativeBenchmark reproduces Table 7: per-task-group scores on the
// negative benchmark (samples negative for any method at θ=10%).
func (st *NegativeStudy) Table7NegativeBenchmark() Table {
	// The benchmark dataset: union of per-method negatives at θ=10%.
	idSet := map[int]bool{}
	for _, m := range negMethods {
		for _, id := range accuracy.CollectNegatives(st.Baseline, st.ByMethod, []string{m}, 0.10).IDs {
			idSet[id] = true
		}
	}
	ids := make([]int, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	t := Table{
		Title:   fmt.Sprintf("Table 7: scores on the negative benchmark (n=%d)", len(ids)),
		Columns: []string{"Baseline", "KIVI", "GEAR", "H2O", "Stream"},
	}
	sources := [][]accuracy.Result{st.Baseline}
	for _, m := range negMethods {
		sources = append(sources, st.ByMethod[m])
	}
	for _, g := range []string{"Summarization", "QA", "Code"} {
		row := TableRow{Label: g}
		for _, src := range sources {
			gs := accuracy.GroupScores(accuracy.FilterByIDs(src, ids))
			if v, ok := gs[g]; ok {
				row.Cells = append(row.Cells, fmt.Sprintf("%.1f", v))
			} else {
				row.Cells = append(row.Cells, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
