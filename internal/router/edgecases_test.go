package router

import (
	"testing"

	"rethinkkv/internal/predictor"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
)

// emptyPredictors has no trained entries for any method.
func emptyPredictors() Predictors {
	return Predictors{
		Thr:  map[string]*predictor.ThroughputPredictor{},
		Len:  map[string]*predictor.LengthPredictor{},
		Salt: 9,
	}
}

func someRequest() workload.Request {
	return workload.Request{ID: 1, PromptLen: 200, RefLen: 100}
}

// Every policy answers 0 on empty views; the simulator's range check (see
// serving.Cluster.Run) is what turns that into an error, so the policies
// themselves must stay panic-free.
func TestPoliciesOnEmptyViews(t *testing.T) {
	preds := emptyPredictors()
	routers := []serving.Router{
		Baseline{},
		WithThroughput{P: preds},
		WithLength{P: preds},
		WithBoth{P: preds},
	}
	for _, r := range routers {
		if got := r.Route(someRequest(), nil); got != 0 {
			t.Fatalf("%s on empty views = %d, want 0", r.Name(), got)
		}
		if got := r.Route(someRequest(), []serving.GPUView{}); got != 0 {
			t.Fatalf("%s on zero-length views = %d, want 0", r.Name(), got)
		}
	}
}

// Predictor-driven policies skip GPUs whose method has no trained predictor
// and fall back to GPU 0 when nothing matches — this documents today's
// silent-fallback contract.
func TestPredictorPoliciesFallBackToGPU0(t *testing.T) {
	views := []serving.GPUView{
		{ID: 0, Method: "fp16"},
		{ID: 1, Method: "stream-512"},
	}
	preds := emptyPredictors()
	if got := (WithThroughput{P: preds}).Route(someRequest(), views); got != 0 {
		t.Fatalf("w/throughput without predictors = %d, want fallback 0", got)
	}
	if got := (WithLength{P: preds}).Route(someRequest(), views); got != 0 {
		t.Fatalf("w/length without predictors = %d, want fallback 0", got)
	}
	if got := (WithBoth{P: preds}).Route(someRequest(), views); got != 0 {
		t.Fatalf("w/both without predictors = %d, want fallback 0", got)
	}

	// With a predictor only for the second GPU's method, routing must land
	// on a GPU that actually has one.
	partial := buildPredictors(t, []string{"stream-512"})
	if got := (WithThroughput{P: partial}).Route(someRequest(), views); got != 1 {
		t.Fatalf("w/throughput with stream-only predictors = %d, want 1", got)
	}
	if got := (WithLength{P: partial}).Route(someRequest(), views); got != 1 {
		t.Fatalf("w/length with stream-only predictors = %d, want 1", got)
	}
	if got := (WithBoth{P: partial}).Route(someRequest(), views); got != 1 {
		t.Fatalf("w/both with stream-only predictors = %d, want 1", got)
	}
}
