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

// toolMethods is the method set of Tables 6 and 8.
var toolMethods = []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512"}

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
	for mi, name := range toolMethods {
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
	rows := map[string][]string{"Baseline": nil, "w/ Throughput": nil, "w/ Length": nil, "w/ Both": nil}

	for _, name := range toolMethods {
		// Batch cap 64 matches continuous-batching engines; smaller caps
		// saturate four A6000s at the paper's 10 rps arrival rate.
		uniform := &serving.Cluster{BatchCap: 64, LM: lm, Seed: seed}
		for i := 0; i < 4; i++ {
			uniform.GPUs = append(uniform.GPUs, serving.GPUConfig{ID: i, Est: toolEst(name)})
		}
		if name == "fp16" {
			// Paper reports only the baseline for FP16.
			out, err := uniform.Run(reqs, router.Baseline{})
			if err != nil {
				return Table{}, err
			}
			rows["Baseline"] = append(rows["Baseline"], fmt.Sprintf("%.1f", serving.MeanE2E(out)))
			for _, l := range []string{"w/ Throughput", "w/ Length", "w/ Both"} {
				rows[l] = append(rows[l], "-")
			}
			continue
		}
		mixed := &serving.Cluster{BatchCap: 64, LM: lm, Seed: seed}
		mixed.GPUs = append(mixed.GPUs, serving.GPUConfig{ID: 0, Est: toolEst("fp16")})
		for i := 1; i < 4; i++ {
			mixed.GPUs = append(mixed.GPUs, serving.GPUConfig{ID: i, Est: toolEst(name)})
		}
		// Predictor suite for this method + the FP16 GPU.
		preds := router.Train(train, lm, []*perf.Estimator{toolEst("fp16"), toolEst(name)}, seed, seed)

		runs := []struct {
			label   string
			cluster *serving.Cluster
			r       serving.Router
		}{
			{"Baseline", uniform, router.Baseline{}},
			{"w/ Throughput", mixed, router.WithThroughput{P: preds}},
			{"w/ Length", mixed, router.WithLength{P: preds}},
			{"w/ Both", mixed, router.WithBoth{P: preds}},
		}
		for _, pr := range runs {
			out, err := pr.cluster.Run(reqs, pr.r)
			if err != nil {
				return Table{}, err
			}
			rows[pr.label] = append(rows[pr.label], fmt.Sprintf("%.1f", serving.MeanE2E(out)))
		}
	}
	for _, label := range []string{"Baseline", "w/ Throughput", "w/ Length", "w/ Both"} {
		t.Rows = append(t.Rows, TableRow{Label: label, Cells: rows[label]})
	}
	return t, nil
}
