package experiments

import (
	"fmt"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/predictor"
	"rethinkkv/internal/router"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

func toolEst(method string) *perf.Estimator {
	return perf.MustNew(gpu.A6000, model.LLaMA2_7B, engine.LMDeploy, compress.MustGet(method), 1)
}

// Table6Predictors reproduces Table 6: the accuracy of the throughput
// predictor (profile-and-interpolate) and the length predictor
// (feature-based classifier) per method.
func Table6Predictors(seed uint64) Table {
	lm := gen.Default()
	train := workload.SampleShareGPT(workload.DefaultShareGPT(3000), seed)
	test := workload.SampleShareGPT(workload.DefaultShareGPT(1000), seed+1)
	t := Table{
		Title:   "Table 6: prediction accuracy of the proposed tools",
		Columns: []string{"FP16", "KIVI", "GEAR", "H2O", "Stream"},
	}
	var thrRow, lenRow []string
	for mi, name := range paperMethods {
		m := compress.MustGet(name)
		tp := predictor.TrainThroughput(toolEst(name), predictor.DefaultGrid(), seed+2+uint64(mi)*101)
		pts := predictor.TestPoints()
		acc := (tp.DecodeAccuracy(pts) + tp.PrefillAccuracy(pts)) / 2
		thrRow = append(thrRow, fmt.Sprintf("%.1f%%", 100*acc))

		lp := predictor.TrainLength(train, lm.Run(train, m, seed+3), m, seed+4)
		lacc := lp.Accuracy(test, lm.Run(test, m, seed+5), seed+4)
		lenRow = append(lenRow, fmt.Sprintf("%.1f%%", 100*lacc))
	}
	t.Rows = append(t.Rows,
		TableRow{Label: "Throughput Predictor", Cells: thrRow},
		TableRow{Label: "Length Predictor", Cells: lenRow},
	)
	return t
}

// Table8Router reproduces Table 8: average end-to-end latency of the four
// routing policies for each compression method, on a Poisson trace
// (n requests at the given rate) over four GPUs.
func Table8Router(n int, rps float64, seed uint64) (Table, error) {
	lm := gen.Default()
	cfg := workload.DefaultShareGPT(n)
	cfg.RPS = rps
	reqs := workload.SampleShareGPT(cfg, seed)
	train := workload.SampleShareGPT(workload.DefaultShareGPT(2000), seed+1)

	t := Table{
		Title:   fmt.Sprintf("Table 8: average E2E latency (s), %d reqs @ %.0f rps, 4 GPUs", n, rps),
		Columns: []string{"FP16", "KIVI", "GEAR", "H2O", "Stream"},
	}
	for _, label := range []string{"Baseline", "w/ Throughput", "w/ Length", "w/ Both"} {
		t.Rows = append(t.Rows, TableRow{Label: label})
	}
	for _, name := range paperMethods {
		clusters := []*serving.Cluster{fourGPUs(lm, seed, name, name)}
		routers := []serving.Router{router.Baseline{}}
		if name != "fp16" { // the paper reports only the baseline for FP16
			// Predictor suite for this method + the FP16 GPU.
			preds := router.Train(train, lm, []*perf.Estimator{toolEst("fp16"), toolEst(name)}, seed, seed)
			mixed := fourGPUs(lm, seed, "fp16", name)
			clusters = append(clusters, mixed, mixed, mixed)
			routers = append(routers, router.WithThroughput{P: preds}, router.WithLength{P: preds}, router.WithBoth{P: preds})
		}
		for i := range t.Rows {
			cell := "-"
			if i < len(routers) {
				out, err := clusters[i].Run(reqs, routers[i])
				if err != nil {
					return Table{}, err
				}
				cell = fmt.Sprintf("%.1f", serving.MeanE2E(out))
			}
			t.Rows[i].Cells = append(t.Rows[i].Cells, cell)
		}
	}
	return t, nil
}

// fourGPUs is Table 8's simulated cluster: GPU 0 runs method first, GPUs 1-3
// run rest. Batch cap 64 matches continuous-batching engines; smaller caps
// saturate four A6000s at the paper's 10 rps arrival rate.
func fourGPUs(lm gen.LengthModel, seed uint64, first, rest string) *serving.Cluster {
	c := &serving.Cluster{BatchCap: 64, LM: lm, Seed: seed}
	for i := 0; i < 4; i++ {
		m := rest
		if i == 0 {
			m = first
		}
		c.GPUs = append(c.GPUs, serving.GPUConfig{ID: i, Est: toolEst(m)})
	}
	return c
}
