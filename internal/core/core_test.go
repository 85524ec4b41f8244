package core

import (
	"context"
	"testing"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/model"
)

// pipeline is what the facade's Pipeline holds: the tiny model at a weight
// seed and a compression method.
type pipeline struct {
	m      *model.Model
	method compress.Method
}

func newPipeline(method string, seed uint64) pipeline {
	return pipeline{m: model.New(model.Tiny(), seed), method: compress.MustGet(method)}
}

// session prefills prompt on a fresh cache of the pipeline's method.
func (p pipeline) session(prompt []int) (*Session, error) {
	return NewSession(p.m, p.method.NewCache(p.m.CacheShape()), prompt)
}

// generate prefills prompt on a fresh session of p, greedily decodes maxNew
// tokens and reports: the facade Pipeline's Run.
func generate(t *testing.T, p pipeline, prompt []int, maxNew int) ([]int, Report) {
	t.Helper()
	s, err := p.session(prompt)
	if err != nil {
		t.Fatal(err)
	}
	return s.Decode(maxNew), s.Report()
}

func TestPipelineRun(t *testing.T) {
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, method := range []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512", "snapkv-512"} {
		out, rep := generate(t, newPipeline(method, 1), prompt, 10)
		if len(out) != 10 {
			t.Fatalf("%s: generated %d", method, len(out))
		}
		if rep.TokensProcessed != 18 {
			t.Fatalf("%s: tokens = %d", method, rep.TokensProcessed)
		}
		if rep.CacheBytes <= 0 || rep.CompressionRatio <= 0 {
			t.Fatalf("%s: bad report %+v", method, rep)
		}
		if method == "fp16" && rep.RetainedTokens != 18 {
			t.Fatalf("fp16 should retain everything: %+v", rep)
		}
	}
}

func TestPipelineCompressionReducesBytes(t *testing.T) {
	prompt := make([]int, 300)
	for i := range prompt {
		prompt[i] = i % 500
	}
	run := func(method string) Report {
		_, rep := generate(t, newPipeline(method, 2), prompt, 5)
		return rep
	}
	fp := run("fp16")
	k := run("kivi-4")
	s := run("stream-256")
	if k.CacheBytes >= fp.CacheBytes {
		t.Fatalf("kivi bytes %d should undercut fp16 %d", k.CacheBytes, fp.CacheBytes)
	}
	if s.CacheBytes >= fp.CacheBytes {
		t.Fatalf("stream bytes %d should undercut fp16 %d", s.CacheBytes, fp.CacheBytes)
	}
	if s.RetainedTokens >= fp.RetainedTokens {
		t.Fatal("eviction should shrink retained tokens")
	}
}

func TestPipelineSameOutputForFP16Determinism(t *testing.T) {
	prompt := []int{9, 8, 7, 6}
	p1 := newPipeline("fp16", 3)
	p2 := newPipeline("fp16", 3)
	a, _ := generate(t, p1, prompt, 6)
	b, _ := generate(t, p2, prompt, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fp16 pipeline must be deterministic")
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	p := newPipeline("fp16", 1)
	if _, err := p.session(nil); err == nil {
		t.Fatal("empty prompt should error")
	}
	generate(t, p, []int{1}, 1)
	generate(t, p, []int{1}, 1) // the pipeline is reusable
}

func TestPipelineReuseMatchesFresh(t *testing.T) {
	prompt := []int{3, 1, 4, 1, 5, 9, 2, 6}
	p := newPipeline("kivi-4", 5)
	a, repA := generate(t, p, prompt, 8)
	b, repB := generate(t, p, prompt, 8)
	fresh := newPipeline("kivi-4", 5)
	c, _ := generate(t, fresh, prompt, 8)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("runs diverge at %d: %v vs %v vs %v", i, a, b, c)
		}
	}
	if repA != repB {
		t.Fatalf("reports diverge: %+v vs %+v", repA, repB)
	}
}

func TestSessionStreaming(t *testing.T) {
	prompt := []int{1, 2, 3, 4}
	p := newPipeline("stream-256", 7)
	s, err := p.session(prompt)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []int
	for i := 0; i < 6; i++ {
		streamed = append(streamed, s.Next())
	}
	if s.Pos() != len(prompt)+6 {
		t.Fatalf("pos = %d", s.Pos())
	}
	rep := s.Report()
	if rep.TokensProcessed != 10 || rep.CacheBytes <= 0 {
		t.Fatalf("bad report %+v", rep)
	}
	batch, _ := generate(t, p, prompt, 6)
	for i := range streamed {
		if streamed[i] != batch[i] {
			t.Fatalf("streamed %v != batch %v", streamed, batch)
		}
	}
	if _, err := p.session(nil); err == nil {
		t.Fatal("empty prompt should error")
	}
}

// newSessions prefills one session per prompt, checking ctx between prompts.
func newSessions(ctx context.Context, p pipeline, prompts [][]int) ([]*Session, error) {
	sessions := make([]*Session, len(prompts))
	for i, prompt := range prompts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := p.session(prompt)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	return sessions, nil
}

// runBatch prefills every prompt, then decodes the sessions concurrently: the
// two steps the facade's GenerateBatch takes.
func runBatch(ctx context.Context, p pipeline, prompts [][]int, maxNew int) ([][]int, []Report, error) {
	sessions, err := newSessions(ctx, p, prompts)
	if err != nil {
		return nil, nil, err
	}
	outs, reports := DecodeSessions(ctx, sessions, maxNew)
	return outs, reports, ctx.Err()
}

// TestRunBatchMatchesSequential proves the concurrent batch path is a pure
// throughput feature: per-prompt outputs and reports are identical to
// sequential sessions'.
func TestRunBatchMatchesSequential(t *testing.T) {
	prompts := [][]int{
		{1, 2, 3, 4},
		{5, 6, 7, 8, 9, 10},
		{11, 12},
		{13, 14, 15, 16, 17},
	}
	const maxNew = 12
	for _, method := range []string{"fp16", "h2o-512"} {
		seq := newPipeline(method, 7)
		wantOuts := make([][]int, len(prompts))
		wantReps := make([]Report, len(prompts))
		for i, p := range prompts {
			wantOuts[i], wantReps[i] = generate(t, seq, p, maxNew)
		}
		par := newPipeline(method, 7)
		outs, reps, err := runBatch(context.Background(), par, prompts, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prompts {
			if len(outs[i]) != maxNew {
				t.Fatalf("%s prompt %d: got %d tokens", method, i, len(outs[i]))
			}
			for j := range outs[i] {
				if outs[i][j] != wantOuts[i][j] {
					t.Fatalf("%s prompt %d token %d: %d != %d", method, i, j, outs[i][j], wantOuts[i][j])
				}
			}
			if reps[i] != wantReps[i] {
				t.Fatalf("%s prompt %d report %+v != %+v", method, i, reps[i], wantReps[i])
			}
		}
	}
}

func TestRunBatchEmptyPromptRejected(t *testing.T) {
	p := newPipeline("fp16", 1)
	if _, _, err := runBatch(context.Background(), p, [][]int{{1, 2}, nil}, 4); err == nil {
		t.Fatal("empty prompt in batch should error")
	}
}

func TestRunBatchCancellation(t *testing.T) {
	p := newPipeline("fp16", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Pre-cancelled: rejected before any prefill work happens.
	if _, _, err := runBatch(ctx, p, [][]int{{1, 2, 3}}, 8); err == nil {
		t.Fatal("cancelled context should surface an error")
	}
	// Cancelled mid-flight: sessions exist, decode stops early with
	// partial outputs.
	sessions, err := newSessions(context.Background(), p, [][]int{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := DecodeSessions(ctx, sessions, 8)
	if len(outs) != 1 || len(outs[0]) != 0 {
		t.Fatalf("cancelled decode should stop immediately, got %v", outs)
	}
}

// TestSessionNextZeroAllocs gates the serving hot path: steady-state greedy
// decode through Session.Next must be allocation-free (amortised cache
// growth aside).
func TestSessionNextZeroAllocs(t *testing.T) {
	p := newPipeline("fp16", 1)
	prompt := make([]int, 64)
	for i := range prompt {
		prompt[i] = i % 500
	}
	s, err := p.session(prompt)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() { s.Next() })
	if avg >= 1 {
		t.Fatalf("Session.Next allocates %.2f/step, want amortised < 1", avg)
	}
}
