// Package accuracy measures per-sample response quality under KV cache
// compression by actually running the tiny transformer (internal/model)
// with each method's cache — nothing here is a synthetic accuracy curve.
//
// For every LongBench-like sample the evaluator runs an FP16 reference and a
// compressed run, then measures:
//
//   - retention: the fraction of the sample's critical token positions the
//     compressed cache still holds after prefill (eviction destroys these);
//   - fidelity: cosine similarity of the cached key vectors at retained
//     critical positions against the FP16 reference (quantisation and
//     upstream lossy attention degrade these);
//   - agreement: greedy-continuation token agreement with the reference;
//   - hidden similarity: cosine of the final prefill hidden states.
//
// Task scores combine these with task-structure-appropriate formulas (QA
// collapses when its needle is gone; summarisation degrades smoothly with
// coverage; code depends on the recent window that eviction policies keep),
// scaled so the FP16 baseline reproduces the paper's Table 7 baseline row.
// Algorithm 1 (negative-sample collection) is implemented verbatim.
package accuracy

import (
	"fmt"
	"math"
	"slices"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/tensor"
	"rethinkkv/internal/textmetrics"
	"rethinkkv/internal/workload"
)

// Config controls the evaluator.
type Config struct {
	// ContSteps is the greedy continuation length compared between the
	// reference and compressed runs.
	ContSteps int
}

// DefaultConfig returns the standard evaluation setting.
func DefaultConfig() Config { return Config{ContSteps: 16} }

// Evaluator scores samples under compression methods.
type Evaluator struct {
	m   *model.Model
	cfg Config
}

// NewEvaluator builds an evaluator over the given tiny model.
func NewEvaluator(m *model.Model, cfg Config) *Evaluator {
	if cfg.ContSteps <= 0 {
		cfg.ContSteps = DefaultConfig().ContSteps
	}
	return &Evaluator{m: m, cfg: cfg}
}

// TinyCache builds the named cache for the tiny model: a registered
// compression method's (compress.Method.NewCache, already at the tiny model's
// scale), or — "int8" / "int4" — the live serving plane's quantized KV pages
// (WithKVQuant), which are not an offline compression method: per-token
// uniform codes the decode kernels dequantize on stream. Evaluating them here
// is what turns the serving plane's capacity win into a measured accuracy
// cost.
func TinyCache(methodName string, shape kvcache.Shape) (kvcache.Cache, error) {
	switch methodName {
	case "int8":
		return kvcache.NewPagedKVQuant(shape, 16, 0, 8), nil
	case "int4":
		return kvcache.NewPagedKVQuant(shape, 16, 0, 4), nil
	}
	m, err := compress.Get(methodName)
	if err != nil {
		return nil, err
	}
	return m.NewCache(shape), nil
}

// Reference is the FP16 run of one sample, reused across methods.
type Reference struct {
	Sample workload.Sample
	// Continuation is the greedy reference continuation.
	Continuation []int
	// Hidden is the final prefill hidden state.
	Hidden []float32
	// criticalK[pos][layer][head] is the cached key vector at a critical
	// position.
	criticalK map[int][][][]float32
}

// RunBaseline executes the FP16 reference for a sample.
func (e *Evaluator) RunBaseline(s workload.Sample) *Reference {
	shape := e.m.CacheShape()
	cache := kvcache.NewFull(shape)
	sess := e.session(cache, s.Prompt)
	ref := &Reference{Sample: s, Hidden: slices.Clone(sess.Hidden()), criticalK: map[int][][][]float32{}}
	ref.Continuation = sess.Decode(e.cfg.ContSteps)
	// Harvest reference keys at critical positions. Full cache positions
	// are the identity, so index == position.
	for _, sp := range s.Critical {
		for pos := sp.Start; pos < sp.End; pos++ {
			if _, dup := ref.criticalK[pos]; dup {
				continue
			}
			ref.criticalK[pos] = make([][][]float32, shape.Layers)
		}
	}
	for l := 0; l < shape.Layers; l++ {
		for h := 0; h < shape.KVHeads; h++ {
			keys, _ := cache.Seq(l, h)
			for pos := range ref.criticalK {
				if ref.criticalK[pos][l] == nil {
					ref.criticalK[pos][l] = make([][]float32, shape.KVHeads)
				}
				ref.criticalK[pos][l][h] = keys[pos]
			}
		}
	}
	return ref
}

// session prefills prompt into cache: the greedy stream every evaluation
// decodes its continuation from.
func (e *Evaluator) session(cache kvcache.Cache, prompt []int) *core.Session {
	s, err := core.NewSession(e.m, cache, prompt)
	if err != nil {
		panic(err)
	}
	return s
}

// Result is the per-sample, per-method evaluation outcome.
type Result struct {
	Sample    workload.Sample
	Method    string
	Retention float64 // critical positions retained, in [0,1]
	Fidelity  float64 // key fidelity at retained critical positions, in [0,1]
	Agreement float64 // positional continuation token agreement, in [0,1]
	F1        float64 // unigram F1 of the continuation vs reference
	EditSim   float64 // normalised edit similarity of the continuation
	HiddenSim float64 // final hidden state cosine, in [-1,1]
	Score     float64 // task score (paper's Table 7 scale)
}

// Evaluate runs a method on the reference's sample and scores it.
func (e *Evaluator) Evaluate(ref *Reference, methodName string) Result {
	s := ref.Sample
	shape := e.m.CacheShape()
	cache, err := TinyCache(methodName, shape)
	if err != nil {
		panic(err)
	}
	sess := e.session(cache, s.Prompt)
	hSim := max(tensor.CosineSim(ref.Hidden, sess.Hidden()), 0)
	retention, fidelity := e.measureCritical(ref, cache)
	cont := sess.Decode(e.cfg.ContSteps)

	agree := tokenAgreement(ref.Continuation, cont)

	r := Result{
		Sample: s, Method: methodName,
		Retention: retention, Fidelity: fidelity,
		Agreement: agree, HiddenSim: hSim,
		F1:      textmetrics.TokenF1(cont, ref.Continuation),
		EditSim: textmetrics.EditSimilarity(cont, ref.Continuation),
	}
	// Continuation quality blends positional agreement with unigram F1:
	// greedy trajectories on the tiny random-weight model diverge far more
	// chaotically than a trained LLM's, and F1 restores partial credit.
	quality := 0.5*agree + 0.5*r.F1
	r.Score = taskScore(s, spanCoverages(e, ref, cache), quality, hSim)
	return r
}

// SparseResult is Result plus the sparse decode plane's own diagnostics:
// the attention-mass recall of the selected pages and the page-selection
// tallies accumulated over the continuation.
type SparseResult struct {
	Result
	// Recall is the mean share of true (dense) attention mass the selected
	// pages carried, in (0, 1]; 1 when sparsity never dropped a page.
	Recall float64
	// PagesSelected / PagesTotal are the continuation's page-selection
	// tallies across every (layer, head) sparse attention.
	PagesSelected int64
	PagesTotal    int64
}

// EvaluateSparse scores the live sparse decode plane (WithSparseAttention)
// at the given page budget: dense prefill into a summaries-enabled paged
// cache — exactly what the serving engines do — then a greedy continuation
// under topK page selection with the attention-mass recall probe on. The
// cache itself is lossless (full-precision pages, nothing evicted), so
// retention and fidelity stay 1 and the whole accuracy cost shows up in
// continuation agreement: sparsity degrades what decode *reads*, not what
// the cache *holds*. pageTokens <= 0 defaults to 16, matching the serving
// default.
func (e *Evaluator) EvaluateSparse(ref *Reference, topK, pageTokens int) SparseResult {
	if topK <= 0 {
		panic(fmt.Sprintf("accuracy: sparse evaluation needs positive topK, got %d", topK))
	}
	if pageTokens <= 0 {
		pageTokens = 16
	}
	s := ref.Sample
	shape := e.m.CacheShape()
	cache := kvcache.NewPagedKVQuant(shape, pageTokens, 0, 0)
	cache.EnableKeySummaries()
	// Prefill stays dense: a token-at-a-time prefill steps decode lanes, so
	// topK stays off until the continuation.
	sess := e.session(cache, s.Prompt)
	hSim := max(tensor.CosineSim(ref.Hidden, sess.Hidden()), 0)
	retention, fidelity := e.measureCritical(ref, cache)

	prev := e.m.SparseTopK()
	e.m.SetSparseTopK(topK)
	bw := sess.Batch()
	bw.SetRecallProbe(true)
	cont := sess.Decode(e.cfg.ContSteps)
	e.m.SetSparseTopK(prev)
	mass, cnt := bw.TakeRecall()
	sel, tot := bw.TakeSparseStats()

	agree := tokenAgreement(ref.Continuation, cont)
	r := Result{
		Sample: s, Method: fmt.Sprintf("sparse-k%d", topK),
		Retention: retention, Fidelity: fidelity,
		Agreement: agree, HiddenSim: hSim,
		F1:      textmetrics.TokenF1(cont, ref.Continuation),
		EditSim: textmetrics.EditSimilarity(cont, ref.Continuation),
	}
	quality := 0.5*agree + 0.5*r.F1
	r.Score = taskScore(s, spanCoverages(e, ref, cache), quality, hSim)
	recall := 1.0
	if cnt > 0 {
		recall = mass / float64(cnt)
	}
	return SparseResult{Result: r, Recall: recall, PagesSelected: sel, PagesTotal: tot}
}

// measureCritical computes retention and fidelity over all critical
// positions, averaged across layers and heads.
func (e *Evaluator) measureCritical(ref *Reference, cache kvcache.Cache) (retention, fidelity float64) {
	shape := e.m.CacheShape()
	var retained, total int
	var fidSum float64
	var fidN int
	for l := 0; l < shape.Layers; l++ {
		for h := 0; h < shape.KVHeads; h++ {
			pos := cache.Positions(l, h)
			index := make(map[int]int, len(pos))
			for i, p := range pos {
				index[p] = i
			}
			keys, _ := cache.Seq(l, h)
			for p, perLayer := range ref.criticalK {
				total++
				i, ok := index[p]
				if !ok {
					continue
				}
				retained++
				sim := tensor.CosineSim(keys[i], perLayer[l][h])
				if sim < 0 {
					sim = 0
				}
				fidSum += sim
				fidN++
			}
		}
	}
	if total == 0 {
		return 1, 1
	}
	retention = float64(retained) / float64(total)
	if fidN == 0 {
		return retention, 0
	}
	return retention, fidSum / float64(fidN)
}

// spanCoverages returns per-span coverage = retention × fidelity measured
// on that span alone.
func spanCoverages(e *Evaluator, ref *Reference, cache kvcache.Cache) []float64 {
	shape := e.m.CacheShape()
	out := make([]float64, len(ref.Sample.Critical))
	for si, sp := range ref.Sample.Critical {
		var retained, total int
		var fidSum float64
		for l := 0; l < shape.Layers; l++ {
			for h := 0; h < shape.KVHeads; h++ {
				pos := cache.Positions(l, h)
				index := make(map[int]int, len(pos))
				for i, p := range pos {
					index[p] = i
				}
				keys, _ := cache.Seq(l, h)
				for p := sp.Start; p < sp.End; p++ {
					total++
					if i, ok := index[p]; ok {
						retained++
						sim := tensor.CosineSim(keys[i], ref.criticalK[p][l][h])
						if sim < 0 {
							sim = 0
						}
						fidSum += sim
					}
				}
			}
		}
		if total > 0 {
			out[si] = fidSum / float64(total) // = retention × mean fidelity
		}
	}
	return out
}

// BaseScore is the FP16 model's raw capability per task group, matching the
// scale of the paper's Table 7 baseline row (LongBench task metrics).
func BaseScore(task workload.TaskType) float64 {
	switch task {
	case workload.Summarization:
		return 32
	case workload.SingleDocQA, workload.MultiDocQA:
		return 52
	case workload.Code:
		return 97
	case workload.FewShot:
		return 60
	default: // Synthetic
		return 70
	}
}

// taskScore maps measured coverage/agreement/similarity onto a task score.
// Formulas reflect each task's dependence structure (package comment).
//
// Two moderating terms keep the mapping faithful to how LongBench behaves
// at full scale. First, many samples are *partially* answerable without
// their critical context (a summary can cover what survived; a QA answer
// can be guessed from topic), so the coverage term is mixed toward 1 with
// weight growing in sample difficulty: easy samples degrade gently, hard
// samples collapse. Second, greedy-continuation divergence on the tiny
// random-weight model is far more chaotic than on a trained LLM, so the
// agreement factor is floored — it modulates rather than dominates.
func taskScore(s workload.Sample, cov []float64, agree, hSim float64) float64 {
	base := BaseScore(s.Task)
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 1
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	d := s.Difficulty
	// depend mixes a coverage term toward 1 by the sample's
	// context-independence: easy samples (low d) are largely answerable
	// without their critical context.
	depend := func(covTerm float64) float64 {
		w := 0.75 * d
		return (1 - w) + w*covTerm
	}
	quality := func(q float64) float64 { return 0.6 + 0.4*q }
	switch s.Task {
	case workload.SingleDocQA, workload.MultiDocQA:
		// QA collapses when the needle is gone (for hard samples).
		c := depend(pow(mean(cov), 1+2*d))
		return base * c * quality(agree)
	case workload.Summarization:
		// Smooth degradation with coverage of the salient set; the
		// summary itself is a long generation, so continuation quality
		// matters as much as representation drift — this is why
		// quantisation's negatives concentrate in summarization (Fig 7).
		c := depend(pow(mean(cov), 0.5+d))
		return base * c * quality(0.5*agree+0.5*hSim)
	case workload.Code:
		// Definitions matter some; the completion context (last span)
		// matters most — and recency-keeping policies preserve it.
		defC, tailC := 1.0, 1.0
		if len(cov) >= 2 {
			defC = mean(cov[:len(cov)-1])
			tailC = cov[len(cov)-1]
		} else if len(cov) == 1 {
			tailC = cov[0]
		}
		c := depend(0.3*defC + 0.7*tailC)
		return base * c * quality(agree)
	case workload.FewShot:
		return base * depend(pow(mean(cov), d)) * quality(agree)
	default: // Synthetic: strict retrieval.
		c := mean(cov)
		return base * depend(c*c*c) * quality(agree)
	}
}

// pow is math.Pow clamped to coverage semantics: inputs outside (0,1) pin
// to the boundary so scores never exceed the base.
func pow(x, p float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return math.Pow(x, p)
}

func tokenAgreement(a, b []int) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	match := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(n)
}

// SemanticScore returns 100 × cosine similarity between the bag-of-token
// representations of two sequences — the semantic-quality proxy used for
// Table 4 (the paper uses ChatGPT-reference similarity; see DESIGN.md).
func SemanticScore(a, b []int, vocab int) float64 {
	if vocab <= 0 {
		panic("accuracy: non-positive vocab")
	}
	va := make([]float32, vocab)
	vb := make([]float32, vocab)
	for _, t := range a {
		if t >= 0 && t < vocab {
			va[t]++
		}
	}
	for _, t := range b {
		if t >= 0 && t < vocab {
			vb[t]++
		}
	}
	return 100 * tensor.CosineSim(va, vb)
}
