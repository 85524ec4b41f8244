package predictor

import (
	"math"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/stats"
	"rethinkkv/internal/workload"
)

// LengthPredictor predicts the response length of a request under a given
// compression method, substituting a feature-based model for the paper's
// BERT classifier (Appendix F): the paper's claim — that length is
// predictable enough to route on (≥85% accuracy, up to 95.7% on compressed
// generations) — is about the signal, not the architecture. The prompt
// encoder is modelled as two noisy views: a content hint (what the prompt
// says about the likely response scale) and a fragility hint (how strongly
// this prompt lengthens under compression; see gen.Fragility).
type LengthPredictor struct {
	m   compress.Method    // the method it was trained for
	reg *stats.LinearModel // log-length regression
	// encoder noise levels (fixed; documented in DESIGN.md).
	hintNoise float64
	fragNoise float64
}

// ContentHint returns the encoder's estimate of the response scale: the
// reference length blurred by encoder noise. Deterministic per request ID.
func ContentHint(req workload.Request, noise float64, salt uint64) float64 {
	r := rng.New(uint64(req.ID)*0x9e3779b97f4a7c15 + salt)
	return float64(req.RefLen) * math.Exp(noise*r.NormFloat64())
}

// FragilityHint returns the encoder's noisy view of the request's
// compression fragility. Deterministic per request ID.
func FragilityHint(req workload.Request, kind compress.Kind, noise float64, salt uint64) float64 {
	r := rng.New(uint64(req.ID)*0xd1b54a32d192ed03 + salt + 3)
	return gen.Fragility(req.ID, kind) + noise*r.NormFloat64()
}

// features builds the model input for one request under a method.
func features(req workload.Request, m compress.Method, hintNoise, fragNoise float64, salt uint64) []float64 {
	sev := gen.Severity(m, req.PromptLen, req.RefLen)
	return []float64{
		math.Log(ContentHint(req, hintNoise, salt) + 1),
		math.Log(float64(req.PromptLen) + 1),
		sev,
		math.Sqrt(sev) * FragilityHint(req, m.Cost.Kind, fragNoise, salt),
	}
}

// TrainLength fits the predictor on simulated generations for one method.
// gens must pair one Generation per request (same order).
func TrainLength(reqs []workload.Request, gens []gen.Generation, m compress.Method, seed uint64) *LengthPredictor {
	if len(reqs) != len(gens) {
		panic("predictor: request/generation length mismatch")
	}
	const (
		hintNoise = 0.08
		fragNoise = 0.15
	)
	lp := &LengthPredictor{m: m, hintNoise: hintNoise, fragNoise: fragNoise}
	X := make([][]float64, len(reqs))
	y := make([]float64, len(reqs))
	for i, req := range reqs {
		X[i] = features(req, m, hintNoise, fragNoise, seed)
		y[i] = math.Log(float64(gens[i].Len))
	}
	lp.reg = stats.FitLinear(X, y, 1500, 0.1)
	return lp
}

// PredictLen returns the point length estimate in tokens under the method
// the predictor was trained for.
func (lp *LengthPredictor) PredictLen(req workload.Request, salt uint64) float64 {
	x := features(req, lp.m, lp.hintNoise, lp.fragNoise, salt)
	l := math.Exp(lp.reg.Predict(x))
	if l < 1 {
		l = 1
	}
	if l > 1024 {
		l = 1024
	}
	return l
}

// Accuracy returns the paper's Table 6 metric: mean over the test set of
// (1 − |Lpred − Lgt| / Lgt), clamped at 0 per sample.
func (lp *LengthPredictor) Accuracy(reqs []workload.Request, gens []gen.Generation, salt uint64) float64 {
	if len(reqs) == 0 || len(reqs) != len(gens) {
		return 0
	}
	var sum float64
	for i, req := range reqs {
		pred := lp.PredictLen(req, salt)
		gt := float64(gens[i].Len)
		a := 1 - math.Abs(pred-gt)/gt
		if a < 0 {
			a = 0
		}
		sum += a
	}
	return sum / float64(len(reqs))
}
