package rethinkkv_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rethinkkv"
)

// The continuous-batching server must reproduce exactly what the plain
// pipeline decodes for the same prompts — the facade-level equivalence
// acceptance test.
func TestServerMatchesPipelineGenerate(t *testing.T) {
	const maxNew = 14
	prompts := [][]int{
		{1, 2, 3, 4, 5},
		{100, 200, 300},
		{7, 7, 7, 7, 7, 7, 7, 7},
		{42},
		{350, 351, 352, 353, 354, 355},
	}

	p, err := rethinkkv.New(rethinkkv.WithSeed(5), rethinkkv.WithMaxNewTokens(maxNew))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		stream, err := p.Generate(context.Background(), prompt)
		if err != nil {
			t.Fatal(err)
		}
		for tok := range stream {
			want[i] = append(want[i], tok.ID)
		}
	}

	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(5),
		rethinkkv.WithMaxNewTokens(maxNew),
		rethinkkv.WithMaxBatch(3),
		rethinkkv.WithPageTokens(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	chans := make([]<-chan rethinkkv.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		var got []int
		var positions []int
		for tok := range ch {
			got = append(got, tok.ID)
			positions = append(positions, tok.Pos)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got), len(want[i]))
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: server %d != pipeline %d", i, j, got[j], want[i][j])
			}
			if positions[j] != len(prompts[i])+j {
				t.Fatalf("request %d token %d: pos %d, want %d", i, j, positions[j], len(prompts[i])+j)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != len(prompts) {
		t.Fatalf("Completed = %d, want %d", st.Completed, len(prompts))
	}
	if out := srv.Outcomes(); len(out) != len(prompts) {
		t.Fatalf("%d outcomes, want %d", len(out), len(prompts))
	}
}

func TestServerPreemptionStaysExact(t *testing.T) {
	const maxNew = 14
	prompts := [][]int{
		{1, 2, 3, 4, 5},
		{100, 200, 300},
		{7, 7, 7, 7, 7, 7, 7, 7},
		{9, 8, 7},
	}
	p, err := rethinkkv.New(rethinkkv.WithSeed(5), rethinkkv.WithMaxNewTokens(maxNew))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		out, _, err := p.Run(prompt, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	// A budget of 10 four-token pages holds less than two full requests
	// (8 prompt + 14 new → 6 pages), forcing evict-and-recompute once
	// one-token predictions let admission over-commit it.
	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(5),
		rethinkkv.WithMaxNewTokens(maxNew),
		rethinkkv.WithMaxBatch(4),
		rethinkkv.WithPageTokens(4),
		rethinkkv.WithKVPages(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	chans := make([]<-chan rethinkkv.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt, Predicted: 1})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		var got []int
		for tok := range ch {
			got = append(got, tok.ID)
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != %d after preemption", i, j, got[j], want[i][j])
			}
		}
	}
	if st := srv.Stats(); st.Preemptions == 0 {
		t.Fatal("tiny page budget never forced a preemption")
	}
}

// TestServerPrefillChunkBitIdentical pins the facade's chunked prefill: a
// long prompt served under a small WithPrefillChunk must stream exactly
// the tokens Pipeline.Generate produces, and the server must report the
// chunked prefill actually ran.
func TestServerPrefillChunkBitIdentical(t *testing.T) {
	const maxNew = 8
	long := make([]int, 90)
	for i := range long {
		long[i] = (i*19 + 2) % 512
	}
	prompts := [][]int{long, {5, 6, 7}, {400, 401}}

	p, err := rethinkkv.New(rethinkkv.WithSeed(9), rethinkkv.WithMaxNewTokens(maxNew))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		stream, err := p.Generate(context.Background(), prompt)
		if err != nil {
			t.Fatal(err)
		}
		for tok := range stream {
			want[i] = append(want[i], tok.ID)
		}
	}

	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(9),
		rethinkkv.WithMaxNewTokens(maxNew),
		rethinkkv.WithMaxBatch(3),
		rethinkkv.WithPageTokens(8),
		rethinkkv.WithPrefillChunk(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	chans := make([]<-chan rethinkkv.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		var got []int
		for tok := range ch {
			got = append(got, tok.ID)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got), len(want[i]))
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != pipeline %d", i, j, got[j], want[i][j])
			}
		}
	}
	st := srv.Stats()
	if min := len(long) / 16; st.PrefillChunks < min {
		t.Fatalf("PrefillChunks = %d, want >= %d", st.PrefillChunks, min)
	}

	if _, err := rethinkkv.NewServer(rethinkkv.WithPrefillChunk(-3)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("negative prefill chunk = %v, want ErrInvalidOption", err)
	}
}

func TestServerErrors(t *testing.T) {
	if _, err := rethinkkv.NewServer(rethinkkv.WithSchedPolicy("lifo")); !errors.Is(err, rethinkkv.ErrUnknownPolicy) {
		t.Fatalf("bad policy = %v, want ErrUnknownPolicy", err)
	}
	if _, err := rethinkkv.NewServer(rethinkkv.WithMaxBatch(0)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("zero batch = %v, want ErrInvalidOption", err)
	}

	if _, err := rethinkkv.NewServer(
		rethinkkv.WithKVPages(2),
		rethinkkv.WithPageTokens(16),
		rethinkkv.WithSharedPrefix(make([]int, 40)),
	); !errors.Is(err, rethinkkv.ErrOutOfPages) {
		t.Fatalf("shared prefix past the budget = %v, want ErrOutOfPages", err)
	}

	srv, err := rethinkkv.NewServer(
		rethinkkv.WithKVPages(4),
		rethinkkv.WithPageTokens(4),
		rethinkkv.WithMaxNewTokens(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{}}); !errors.Is(err, rethinkkv.ErrEmptyPrompt) {
		t.Fatalf("empty prompt = %v, want ErrEmptyPrompt", err)
	}
	if _, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{1, 99999}}); !errors.Is(err, rethinkkv.ErrInvalidToken) {
		t.Fatalf("out-of-vocab = %v, want ErrInvalidToken", err)
	}
	long := make([]int, 32) // 32 prompt + 8 new = 10 pages > 4-page budget
	if _, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: long}); !errors.Is(err, rethinkkv.ErrOutOfPages) {
		t.Fatalf("oversized = %v, want ErrOutOfPages", err)
	}
	srv.Close()
	if _, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: []int{1}}); !errors.Is(err, rethinkkv.ErrServerClosed) {
		t.Fatalf("submit after close = %v, want ErrServerClosed", err)
	}
}

func TestSchedPoliciesRegistry(t *testing.T) {
	pols := rethinkkv.SchedPolicies()
	if len(pols) != 2 {
		t.Fatalf("SchedPolicies = %v, want 2 entries", pols)
	}
	for _, name := range pols {
		srv, err := rethinkkv.NewServer(rethinkkv.WithSchedPolicy(name))
		if err != nil {
			t.Fatalf("policy %q rejected: %v", name, err)
		}
		srv.Close()
	}
}

func TestNewClusterRejectsBadSchedPolicy(t *testing.T) {
	_, err := rethinkkv.NewCluster([]string{"fp16"}, rethinkkv.WithRealEngine(), rethinkkv.WithSchedPolicy("bogus"))
	if !errors.Is(err, rethinkkv.ErrUnknownPolicy) {
		t.Fatalf("bad policy at cluster construction = %v, want ErrUnknownPolicy", err)
	}
}

// Real-engine trace replay: the same ServeTrace call, backed by actual
// continuous-batching decode instead of the cost-model simulator.
func TestServeTraceRealEngine(t *testing.T) {
	cluster, err := rethinkkv.NewCluster([]string{"fp16", "fp16"},
		rethinkkv.WithRealEngine(),
		rethinkkv.WithSeed(3),
		rethinkkv.WithMaxNewTokens(6),
		rethinkkv.WithMaxBatch(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.Router(rethinkkv.RouterBaseline)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]rethinkkv.Request, 6)
	for i := range reqs {
		reqs[i] = rethinkkv.Request{ID: i, PromptLen: 5 + i, RefLen: 6, ArrivalTime: 0}
	}
	out, err := cluster.ServeTrace(reqs, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("%d outcomes, want %d", len(out), len(reqs))
	}
	gpus := map[int]int{}
	for i, o := range out {
		if o.Req.ID != i {
			t.Fatalf("outcome %d has ID %d", i, o.Req.ID)
		}
		if o.RespLen != 6 {
			t.Fatalf("request %d RespLen %d, want 6", i, o.RespLen)
		}
		if o.TTFT() < 0 || o.E2E() <= 0 {
			t.Fatalf("request %d: bad timing %+v", i, o)
		}
		gpus[o.GPU]++
	}
	if len(gpus) < 2 {
		t.Fatalf("baseline router used %d of 2 engines", len(gpus))
	}
	if tps := rethinkkv.TokensPerSec(out); tps <= 0 {
		t.Fatalf("TokensPerSec = %v", tps)
	}
}

// TestServerTokenBudgetBitIdentical pins the facade's stall-free packing: k
// long prompts arriving together under WithTokenBudget stream exactly what
// Pipeline.Generate produces, and the server must report that chunks from
// distinct prompts actually shared budgeted passes.
func TestServerTokenBudgetBitIdentical(t *testing.T) {
	const maxNew = 8
	prompts := make([][]int, 4)
	for i := range prompts {
		p := make([]int, 40+9*i)
		for j := range p {
			p[j] = (j*13 + i*29 + 3) % 512
		}
		prompts[i] = p
	}

	p, err := rethinkkv.New(rethinkkv.WithSeed(9), rethinkkv.WithMaxNewTokens(maxNew))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		stream, err := p.Generate(context.Background(), prompt)
		if err != nil {
			t.Fatal(err)
		}
		for tok := range stream {
			want[i] = append(want[i], tok.ID)
		}
	}

	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(9),
		rethinkkv.WithMaxNewTokens(maxNew),
		rethinkkv.WithMaxBatch(4),
		rethinkkv.WithPageTokens(8),
		rethinkkv.WithPrefillChunk(16),
		rethinkkv.WithTokenBudget(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	chans := make([]<-chan rethinkkv.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		var got []int
		for tok := range ch {
			got = append(got, tok.ID)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got), len(want[i]))
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != pipeline %d", i, j, got[j], want[i][j])
			}
		}
	}
	st := srv.Stats()
	if st.PackedChunks == 0 {
		t.Fatal("four simultaneous long prompts under a generous budget packed no chunks")
	}
	if st.BudgetTokens == 0 {
		t.Fatal("BudgetTokens stayed 0 across a served trace")
	}

	if _, err := rethinkkv.NewServer(rethinkkv.WithTokenBudget(-1)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewServer(WithTokenBudget(-1)): %v, want ErrInvalidOption", err)
	}
	if _, err := rethinkkv.NewFleet(2, rethinkkv.WithTokenBudget(-1)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewFleet(WithTokenBudget(-1)): %v, want ErrInvalidOption", err)
	}
	if _, err := rethinkkv.NewCluster([]string{"fp16"}, rethinkkv.WithTokenBudget(-1)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("NewCluster(WithTokenBudget(-1)): %v, want ErrInvalidOption", err)
	}
}
