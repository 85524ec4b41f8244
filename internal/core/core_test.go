package core

import (
	"context"
	"testing"
)

func TestPipelineRun(t *testing.T) {
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, method := range []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512", "snapkv-512"} {
		p, err := NewPipeline(method, 1)
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := p.Run(prompt, 10)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
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
		p, err := NewPipeline(method, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := p.Run(prompt, 5)
		if err != nil {
			t.Fatal(err)
		}
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
	p1, _ := NewPipeline("fp16", 3)
	p2, _ := NewPipeline("fp16", 3)
	a, _, err := p1.Run(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p2.Run(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fp16 pipeline must be deterministic")
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := NewPipeline("bogus", 1); err == nil {
		t.Fatal("unknown method should error")
	}
	p, _ := NewPipeline("fp16", 1)
	if _, _, err := p.Run(nil, 5); err == nil {
		t.Fatal("empty prompt should error")
	}
	if _, _, err := p.Run([]int{1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run([]int{1}, 1); err != nil {
		t.Fatalf("pipeline must be reusable: %v", err)
	}
}

func TestPipelineReuseMatchesFresh(t *testing.T) {
	prompt := []int{3, 1, 4, 1, 5, 9, 2, 6}
	p, err := NewPipeline("kivi-4", 5)
	if err != nil {
		t.Fatal(err)
	}
	a, repA, err := p.Run(prompt, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := p.Run(prompt, 8)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewPipeline("kivi-4", 5)
	c, _, err := fresh.Run(prompt, 8)
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := NewPipeline("stream-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(prompt)
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
	batch, _, err := p.Run(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range streamed {
		if streamed[i] != batch[i] {
			t.Fatalf("streamed %v != batch %v", streamed, batch)
		}
	}
	if _, err := p.NewSession(nil); err == nil {
		t.Fatal("empty prompt should error")
	}
}

func TestNewSystem(t *testing.T) {
	s, err := NewSystem("a6000", "llama-2-7b", "lmdeploy", "kivi-4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if thr := s.Est.DecodeThroughput(1, 1024); thr <= 0 {
		t.Fatalf("throughput = %v", thr)
	}
	// vLLM is a valid engine (Appendix A.4 comparison).
	if _, err := NewSystem("a6000", "llama-2-7b", "vllm", "fp16", 1); err != nil {
		t.Fatal(err)
	}
	bad := [][5]string{
		{"tpu", "llama-2-7b", "lmdeploy", "fp16", "1"},
		{"a6000", "gpt-2", "lmdeploy", "fp16", "1"},
		{"a6000", "llama-2-7b", "tgi", "fp16", "1"},
		{"a6000", "llama-2-7b", "lmdeploy", "zip-9", "1"},
	}
	for _, c := range bad {
		if _, err := NewSystem(c[0], c[1], c[2], c[3], 1); err == nil {
			t.Fatalf("expected error for %v", c)
		}
	}
}

// runBatch prefills every prompt, then decodes the sessions concurrently: the
// two calls the facade's GenerateBatch makes.
func runBatch(ctx context.Context, p *Pipeline, prompts [][]int, maxNew int) ([][]int, []Report, error) {
	sessions, err := p.NewSessions(ctx, prompts)
	if err != nil {
		return nil, nil, err
	}
	outs, reports := DecodeSessions(ctx, sessions, maxNew)
	return outs, reports, ctx.Err()
}

// TestRunBatchMatchesSequential proves the concurrent batch path is a pure
// throughput feature: per-prompt outputs and reports are identical to
// sequential Run calls.
func TestRunBatchMatchesSequential(t *testing.T) {
	prompts := [][]int{
		{1, 2, 3, 4},
		{5, 6, 7, 8, 9, 10},
		{11, 12},
		{13, 14, 15, 16, 17},
	}
	const maxNew = 12
	for _, method := range []string{"fp16", "h2o-512"} {
		seq, err := NewPipeline(method, 7)
		if err != nil {
			t.Fatal(err)
		}
		wantOuts := make([][]int, len(prompts))
		wantReps := make([]Report, len(prompts))
		for i, p := range prompts {
			out, rep, err := seq.Run(p, maxNew)
			if err != nil {
				t.Fatal(err)
			}
			wantOuts[i], wantReps[i] = out, rep
		}
		par, err := NewPipeline(method, 7)
		if err != nil {
			t.Fatal(err)
		}
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
	p, err := NewPipeline("fp16", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runBatch(context.Background(), p, [][]int{{1, 2}, nil}, 4); err == nil {
		t.Fatal("empty prompt in batch should error")
	}
}

func TestRunBatchCancellation(t *testing.T) {
	p, err := NewPipeline("fp16", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Pre-cancelled: rejected before any prefill work happens.
	if _, _, err := runBatch(ctx, p, [][]int{{1, 2, 3}}, 8); err == nil {
		t.Fatal("cancelled context should surface an error")
	}
	// Cancelled mid-flight: sessions exist, decode stops early with
	// partial outputs.
	sessions, err := p.NewSessions(context.Background(), [][]int{{1, 2, 3}})
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
	p, err := NewPipeline("fp16", 1)
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 64)
	for i := range prompt {
		prompt[i] = i % 500
	}
	s, err := p.NewSession(prompt)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() { s.Next() })
	if avg >= 1 {
		t.Fatalf("Session.Next allocates %.2f/step, want amortised < 1", avg)
	}
}
