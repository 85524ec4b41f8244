// Package predictor implements the paper's two serving-assist tools
// (Section 5):
//
//   - a throughput predictor in the style of Vidur: attention-operator
//     latencies are profiled offline on a coarse (batch × sequence-length)
//     grid — with realistic measurement noise — and bilinearly interpolated
//     at query time, composed with the analytical linear-layer cost;
//   - a length predictor: a bucketed classifier over request features that
//     substitutes for the paper's BERT-based model (DESIGN.md), predicting
//     the response-length bucket a request will fall into under a given
//     compression method.
//
// Both report accuracy the way the paper's Table 6 does.
package predictor

import (
	"math"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/stats"
)

// ThroughputPredictor predicts prefill and decode throughput from
// Vidur-style offline operator profiles: the full step latency is profiled
// (with measurement noise) on a coarse grid and bilinearly interpolated at
// query time. Both interpolation error on the nonlinear latency surface and
// profiling noise contribute to the ~85-90% accuracy the paper reports.
type ThroughputPredictor struct {
	est *perf.Estimator
	// Profiled step-latency tables over (batch, length).
	decodeLat  *stats.BilinearTable
	prefillLat *stats.BilinearTable
}

// ProfileGrid is the offline profiling sweep.
type ProfileGrid struct {
	Batches []int
	Lengths []int
	// Noise is the relative measurement noise of one profile run (GPUs
	// jitter; the paper averages three runs — we profile once with noise).
	Noise float64
}

// DefaultGrid returns the paper-style coarse sweep.
func DefaultGrid() ProfileGrid {
	return ProfileGrid{
		Batches: []int{1, 2, 4, 8, 16},
		Lengths: []int{128, 512, 1024, 2048, 4096, 8192},
		Noise:   0.10,
	}
}

// TrainThroughput profiles the estimator's attention operator on the grid
// and builds the interpolating predictor. Deterministic given seed.
func TrainThroughput(est *perf.Estimator, grid ProfileGrid, seed uint64) *ThroughputPredictor {
	r := rng.New(seed)
	profile := func(f func(b, l int) float64) *stats.BilinearTable {
		xs := make([]float64, len(grid.Batches))
		for i, b := range grid.Batches {
			xs[i] = float64(b)
		}
		ys := make([]float64, len(grid.Lengths))
		for j, l := range grid.Lengths {
			ys[j] = float64(l)
		}
		z := make([][]float64, len(xs))
		for i, b := range grid.Batches {
			z[i] = make([]float64, len(ys))
			for j, l := range grid.Lengths {
				noise := 1 + grid.Noise*r.NormFloat64()
				if noise < 0.5 {
					noise = 0.5
				}
				z[i][j] = f(b, l) * noise
			}
		}
		return stats.NewBilinearTable(xs, ys, z)
	}
	return &ThroughputPredictor{
		est:        est,
		decodeLat:  profile(func(b, l int) float64 { return est.DecodeStepLatency(b, l) }),
		prefillLat: profile(func(b, l int) float64 { return est.PrefillLatency(b, l) }),
	}
}

// Method returns the compression method the predictor was profiled for.
func (p *ThroughputPredictor) Method() compress.Method { return p.est.Method }

// PredictDecodeThroughput returns predicted decode tokens/second.
func (p *ThroughputPredictor) PredictDecodeThroughput(batch, kvLen int) float64 {
	lat := p.decodeLat.At(float64(batch), float64(kvLen))
	if lat <= 0 {
		lat = p.est.DecodeStepLatency(batch, kvLen)
	}
	return float64(batch) / lat
}

// PredictPrefillThroughput returns predicted prefill tokens/second.
func (p *ThroughputPredictor) PredictPrefillThroughput(batch, promptLen int) float64 {
	lat := p.prefillLat.At(float64(batch), float64(promptLen))
	if lat <= 0 {
		lat = p.est.PrefillLatency(batch, promptLen)
	}
	return float64(batch) * float64(promptLen) / lat
}

// PredictE2E returns predicted end-to-end latency for one request: prefill
// plus predicted decode steps at the mid-generation KV length.
func (p *ThroughputPredictor) PredictE2E(promptLen, respLen int) float64 {
	pre := float64(promptLen) / math.Max(p.PredictPrefillThroughput(1, promptLen), 1e-9)
	midKV := promptLen + respLen/2
	dec := float64(respLen) / math.Max(p.PredictDecodeThroughput(1, midKV), 1e-9)
	return pre + dec
}

// AccuracyPoint is one evaluation configuration.
type AccuracyPoint struct {
	Batch, Length int
}

// DecodeAccuracy returns the paper's accuracy metric, mean over points of
// (1 − |pred − true|/true), clamped at 0.
func (p *ThroughputPredictor) DecodeAccuracy(points []AccuracyPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	for _, pt := range points {
		pred := p.PredictDecodeThroughput(pt.Batch, pt.Length)
		truth := p.est.DecodeThroughput(pt.Batch, pt.Length)
		sum += relAccuracy(pred, truth)
	}
	return sum / float64(len(points))
}

// PrefillAccuracy is DecodeAccuracy for the prefill stage.
func (p *ThroughputPredictor) PrefillAccuracy(points []AccuracyPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	for _, pt := range points {
		pred := p.PredictPrefillThroughput(pt.Batch, pt.Length)
		truth := p.est.PrefillThroughput(pt.Batch, pt.Length)
		sum += relAccuracy(pred, truth)
	}
	return sum / float64(len(points))
}

func relAccuracy(pred, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	a := 1 - math.Abs(pred-truth)/truth
	if a < 0 {
		return 0
	}
	return a
}

// TestPoints returns off-grid evaluation points interleaved between the
// profiled grid coordinates.
func TestPoints() []AccuracyPoint {
	var pts []AccuracyPoint
	for _, b := range []int{1, 3, 6, 12} {
		for _, l := range []int{256, 768, 1536, 3072, 6144} {
			pts = append(pts, AccuracyPoint{Batch: b, Length: l})
		}
	}
	return pts
}
