// Package workload synthesises the two datasets the paper evaluates on:
//
//   - a ShareGPT-like request stream (the paper samples 1,000 ShareGPT
//     conversations for throughput and length analysis): log-normal prompt
//     and reference-response lengths with ShareGPT-calibrated parameters,
//     plus Poisson arrivals for the serving experiments;
//   - a LongBench-like long-context task suite (the paper's negative-sample
//     analysis): six task types whose samples carry *computable* ground
//     truth — each sample knows which prompt token spans are critical to
//     answering it, so accuracy under compression can be measured
//     mechanistically (see internal/accuracy).
//
// Everything is deterministic given a seed.
package workload

import (
	"fmt"

	"rethinkkv/internal/rng"
)

// Request is one ShareGPT-like serving request.
type Request struct {
	ID        int
	PromptLen int
	// RefLen is the reference (uncompressed, temperature-1) response
	// length in tokens.
	RefLen int
	// ArrivalTime is seconds since trace start (0 for closed-loop use).
	ArrivalTime float64
}

// ShareGPTConfig parameterises the request synthesiser. Defaults match the
// ShareGPT statistics used by vLLM's benchmark_serving sampler: median
// prompt ≈ 180 tokens with a heavy tail, median response ≈ 250 tokens,
// both capped (the paper caps generation at 1,024 tokens, Appendix A.1).
type ShareGPTConfig struct {
	N             int
	PromptMu      float64 // log-space mean of prompt length
	PromptSigma   float64
	ResponseMu    float64
	ResponseSigma float64
	MaxPrompt     int
	MaxResponse   int
	// RPS > 0 adds Poisson arrival times at that request rate.
	RPS float64
}

// DefaultShareGPT returns the paper's sampling setup for n requests.
func DefaultShareGPT(n int) ShareGPTConfig {
	return ShareGPTConfig{
		N:        n,
		PromptMu: 5.2, PromptSigma: 1.0, // median ≈ 181
		ResponseMu: 5.5, ResponseSigma: 0.9, // median ≈ 245
		MaxPrompt:   8192,
		MaxResponse: 1024,
	}
}

// SampleShareGPT draws a deterministic request trace.
func SampleShareGPT(cfg ShareGPTConfig, seed uint64) []Request {
	r := rng.New(seed)
	reqs := make([]Request, cfg.N)
	now := 0.0
	for i := range reqs {
		p := int(r.LogNormal(cfg.PromptMu, cfg.PromptSigma))
		if p < 4 {
			p = 4
		}
		if p > cfg.MaxPrompt {
			p = cfg.MaxPrompt
		}
		resp := int(r.LogNormal(cfg.ResponseMu, cfg.ResponseSigma))
		if resp < 1 {
			resp = 1
		}
		if resp > cfg.MaxResponse {
			resp = cfg.MaxResponse
		}
		if cfg.RPS > 0 {
			now += r.Exponential(cfg.RPS)
		}
		reqs[i] = Request{ID: i, PromptLen: p, RefLen: resp, ArrivalTime: now}
	}
	return reqs
}

// TaskType is a LongBench-like task category. The proportions and span
// structures mirror LongBench's task groups (Appendix D).
type TaskType int

const (
	// Summarization needs broad coverage: many critical spans dispersed
	// across the whole context.
	Summarization TaskType = iota
	// SingleDocQA needs one needle span at a random position.
	SingleDocQA
	// MultiDocQA needs several needle spans in different regions.
	MultiDocQA
	// Code needs definitions near the beginning plus local context at the
	// end (where completion happens).
	Code
	// FewShot needs the example boundaries in the middle of the prompt.
	FewShot
	// Synthetic is extreme retrieval: one tiny span, uniformly placed.
	Synthetic
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	switch t {
	case Summarization:
		return "summarization"
	case SingleDocQA:
		return "single-doc-qa"
	case MultiDocQA:
		return "multi-doc-qa"
	case Code:
		return "code"
	case FewShot:
		return "few-shot"
	case Synthetic:
		return "synthetic"
	default:
		return fmt.Sprintf("task(%d)", int(t))
	}
}

// Group maps fine task types onto the five groups of the paper's Figure 7
// pie charts.
func (t TaskType) Group() string {
	switch t {
	case Summarization:
		return "Summarization"
	case SingleDocQA, MultiDocQA:
		return "QA"
	case Code:
		return "Code"
	case FewShot:
		return "Few shot"
	default:
		return "Synthetic"
	}
}

// AllTasks lists every task type.
func AllTasks() []TaskType {
	return []TaskType{Summarization, SingleDocQA, MultiDocQA, Code, FewShot, Synthetic}
}

// Span is a half-open token range [Start, End) within a prompt.
type Span struct{ Start, End int }

// Len returns the span length.
func (s Span) Len() int { return s.End - s.Start }

// Sample is one LongBench-like evaluation sample.
type Sample struct {
	ID        int
	Task      TaskType
	PromptLen int
	// Critical are the prompt spans the answer depends on.
	Critical []Span
	// Difficulty in (0, 1]: how sharply accuracy degrades with lost
	// critical information (heavier-tailed for harder samples).
	Difficulty float64
	// Prompt is the token sequence for the tiny model (vocabulary ids).
	Prompt []int
	// AnswerLen is the expected answer length in tokens.
	AnswerLen int
}

// LongBenchConfig parameterises the task-suite generator.
type LongBenchConfig struct {
	N int
	// PromptLen is the nominal context length (LongBench averages thousands
	// of tokens; for tiny-model execution this is scaled down — the
	// *fractions* of budget/prompt are what transfer).
	PromptLen int
	// Vocab bounds the token ids drawn for prompts.
	Vocab int
	// Mix weights task types; nil uses LongBench-like proportions.
	Mix []float64
}

// DefaultLongBench returns a suite of n samples with the given prompt scale.
func DefaultLongBench(n, promptLen, vocab int) LongBenchConfig {
	return LongBenchConfig{N: n, PromptLen: promptLen, Vocab: vocab,
		// Summ, SQA, MQA, Code, FewShot, Synthetic — LongBench-like mix.
		Mix: []float64{0.22, 0.18, 0.14, 0.18, 0.16, 0.12}}
}

// SampleLongBench draws a deterministic task suite.
func SampleLongBench(cfg LongBenchConfig, seed uint64) []Sample {
	if cfg.Vocab < 16 || cfg.PromptLen < 32 {
		panic("workload: LongBench config too small")
	}
	r := rng.New(seed)
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultLongBench(0, 0, 0).Mix
	}
	out := make([]Sample, cfg.N)
	for i := range out {
		task := AllTasks()[r.Categorical(mix)]
		out[i] = generateSample(i, task, cfg, r)
	}
	return out
}

// generateSample builds one sample with task-appropriate critical spans.
func generateSample(id int, task TaskType, cfg LongBenchConfig, r *rng.RNG) Sample {
	p := cfg.PromptLen
	// Jitter prompt length ±25%.
	p = p*3/4 + r.Intn(p/2+1)
	s := Sample{ID: id, Task: task, PromptLen: p, Difficulty: 0.3 + 0.7*r.Float64()}
	span := func(start, length int) Span {
		if start < 0 {
			start = 0
		}
		if start+length > p {
			start = p - length
		}
		if start < 0 {
			start, length = 0, p
		}
		return Span{Start: start, End: start + length}
	}
	switch task {
	case Summarization:
		// 6-12 salient spans spread across the document.
		n := 6 + r.Intn(7)
		for j := 0; j < n; j++ {
			center := (j*p)/n + r.Intn(p/n+1)
			s.Critical = append(s.Critical, span(center, 4+r.Intn(5)))
		}
		s.AnswerLen = 48
	case SingleDocQA:
		// One needle, anywhere but the final 10%.
		pos := r.Intn(p * 9 / 10)
		s.Critical = append(s.Critical, span(pos, 6+r.Intn(6)))
		s.AnswerLen = 16
	case MultiDocQA:
		for j := 0; j < 2+r.Intn(3); j++ {
			s.Critical = append(s.Critical, span(r.Intn(p*9/10), 5+r.Intn(5)))
		}
		s.AnswerLen = 24
	case Code:
		// Definitions near the start, completion context at the very end.
		s.Critical = append(s.Critical, span(r.Intn(p/10), 8))
		s.Critical = append(s.Critical, span(p-16, 16))
		s.AnswerLen = 24
	case FewShot:
		// Example boundaries in the middle half.
		for j := 0; j < 3+r.Intn(3); j++ {
			pos := p/4 + r.Intn(p/2)
			s.Critical = append(s.Critical, span(pos, 4+r.Intn(4)))
		}
		s.AnswerLen = 12
	case Synthetic:
		s.Critical = append(s.Critical, span(r.Intn(p-4), 3))
		s.AnswerLen = 8
	}
	// Prompt tokens: filler from the lower vocabulary; critical spans use
	// high-vocabulary "content" tokens so they are distinguishable.
	s.Prompt = make([]int, p)
	half := cfg.Vocab / 2
	for j := range s.Prompt {
		s.Prompt[j] = r.Intn(half)
	}
	for _, sp := range s.Critical {
		for j := sp.Start; j < sp.End && j < p; j++ {
			s.Prompt[j] = half + r.Intn(cfg.Vocab-half)
		}
	}
	return s
}
