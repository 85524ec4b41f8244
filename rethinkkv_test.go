package rethinkkv_test

// Tests exercise the package exactly as a downstream importer would: only
// the public rethinkkv API, no internal packages.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rethinkkv"
)

func testPrompt(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i*13 + 5) % 500
	}
	return p
}

func TestPipelineGenerateReinvokable(t *testing.T) {
	p, err := rethinkkv.New(
		rethinkkv.WithMethod("kivi-4"),
		rethinkkv.WithSeed(42),
		rethinkkv.WithMaxNewTokens(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	prompt := testPrompt(64)
	collect := func() []int {
		ch, err := p.Generate(context.Background(), prompt)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for tok := range ch {
			out = append(out, tok.ID)
			if tok.Pos < len(prompt) {
				t.Fatalf("token pos %d inside prompt", tok.Pos)
			}
		}
		return out
	}
	first := collect()
	second := collect() // two consecutive generations on one pipeline
	if len(first) != 6 || len(second) != 6 {
		t.Fatalf("got %d and %d tokens, want 6 each", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("generations diverge: %v vs %v", first, second)
		}
	}
	// And a blocking Run on the same pipeline still agrees.
	out, rep, err := p.Run(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != first[i] {
			t.Fatalf("Run %v disagrees with Generate %v", out, first)
		}
	}
	if rep.Method != "kivi-4" || rep.CompressionRatio <= 1 {
		t.Fatalf("bad report %+v", rep)
	}
}

func TestGenerateCancellation(t *testing.T) {
	p, err := rethinkkv.New(
		rethinkkv.WithMethod("fp16"),
		rethinkkv.WithMaxNewTokens(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := p.Generate(ctx, testPrompt(32))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for range ch {
		got++
		if got == 3 {
			cancel()
		}
	}
	if got >= 1000 {
		t.Fatalf("cancellation ignored: %d tokens streamed", got)
	}
	// The pipeline survives cancellation and can generate again.
	ch2, err := p.Generate(context.Background(), testPrompt(8))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Minute)
	n := 0
	for {
		select {
		case _, ok := <-ch2:
			if !ok {
				if n != 1000 {
					t.Fatalf("post-cancel generation yielded %d tokens", n)
				}
				return
			}
			n++
		case <-deadline:
			t.Fatal("post-cancel generation hung")
		}
	}
}

func TestGenerateAbandonedStream(t *testing.T) {
	p, err := rethinkkv.New(rethinkkv.WithMethod("fp16"), rethinkkv.WithMaxNewTokens(20))
	if err != nil {
		t.Fatal(err)
	}
	// Read one token, then abandon the channel without cancelling: the
	// buffered channel lets the producer run to completion instead of
	// leaking, and the pipeline stays usable.
	ch, err := p.Generate(context.Background(), testPrompt(16))
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	out, _, err := p.Run(testPrompt(16), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("post-abandon Run yielded %d tokens", len(out))
	}
}

func TestForeignClusterRouterRejected(t *testing.T) {
	a, err := rethinkkv.NewCluster([]string{"fp16", "fp16"}, rethinkkv.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rethinkkv.NewCluster([]string{"fp16", "fp16", "fp16"}, rethinkkv.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Router("baseline")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ServeTrace(rethinkkv.ShareGPTTrace(5, 10, 1), r); err == nil {
		t.Fatal("router from cluster a must be rejected by cluster b")
	}
	// The guard sits ahead of both backends: a real-engine cluster rejects
	// the foreign router before it starts an engine.
	live, err := rethinkkv.NewCluster([]string{"fp16", "fp16"}, rethinkkv.WithSeed(1), rethinkkv.WithRealEngine())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.ServeTrace(rethinkkv.ShareGPTTrace(5, 10, 1), r); err == nil || !strings.Contains(err.Error(), "different cluster") {
		t.Fatalf("router from cluster a on a real-engine cluster: err %v, want the foreign-cluster rejection", err)
	}
	if _, err := a.ServeTrace(rethinkkv.ShareGPTTrace(5, 10, 1), r); err != nil {
		t.Fatalf("router on its own cluster: %v", err)
	}
}

// loggingRouter wraps another Router — the delegation pattern the Router
// interface invites.
type loggingRouter struct{ inner rethinkkv.Router }

func (l loggingRouter) Name() string { return "logged-" + l.inner.Name() }
func (l loggingRouter) Route(req rethinkkv.Request, views []rethinkkv.GPUView) int {
	return l.inner.Route(req, views)
}

func TestWrappedNamedRouterOnForeignCluster(t *testing.T) {
	a, err := rethinkkv.NewCluster([]string{"fp16", "fp16"}, rethinkkv.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Cluster B is larger than A: the wrapper defeats ServeTrace's
	// same-cluster guard, so the named policy must still route safely and
	// in-range from the views alone.
	b, err := rethinkkv.NewCluster([]string{"fp16", "fp16", "fp16", "fp16"}, rethinkkv.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Router("baseline")
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.ServeTrace(rethinkkv.ShareGPTTrace(20, 50, 1), loggingRouter{inner: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("served %d of 20", len(out))
	}
	for _, o := range out {
		if o.GPU < 0 || o.GPU >= b.Size() {
			t.Fatalf("routed to GPU %d of %d", o.GPU, b.Size())
		}
	}
}

func TestConcurrentRouterConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor training is slow")
	}
	c, err := rethinkkv.NewCluster([]string{"fp16", "stream-512"}, rethinkkv.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"w/throughput", "w/length", "w/both"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := c.Router(name); err != nil {
				t.Errorf("Router(%q): %v", name, err)
			}
		}(name)
	}
	wg.Wait()
}

func TestTypedErrors(t *testing.T) {
	if _, err := rethinkkv.New(rethinkkv.WithMethod("zip-9")); !errors.Is(err, rethinkkv.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
	if _, err := rethinkkv.NewSystem(rethinkkv.WithModel("gpt-2")); !errors.Is(err, rethinkkv.ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
	if _, err := rethinkkv.NewSystem(rethinkkv.WithEngine("tgi")); !errors.Is(err, rethinkkv.ErrUnknownEngine) {
		t.Fatalf("want ErrUnknownEngine, got %v", err)
	}
	if _, err := rethinkkv.NewSystem(rethinkkv.WithHardware("tpu")); !errors.Is(err, rethinkkv.ErrUnknownHardware) {
		t.Fatalf("want ErrUnknownHardware, got %v", err)
	}
	if _, err := rethinkkv.NewSystem(rethinkkv.WithMethod("zip-9")); !errors.Is(err, rethinkkv.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod from NewSystem, got %v", err)
	}
	if _, err := rethinkkv.NewCluster(nil); !errors.Is(err, rethinkkv.ErrEmptyCluster) {
		t.Fatalf("want ErrEmptyCluster, got %v", err)
	}
	if _, err := rethinkkv.NewCluster([]string{"fp16"}, rethinkkv.WithBatchCap(0)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("want ErrInvalidOption for zero batch cap, got %v", err)
	}
	if _, err := rethinkkv.New(rethinkkv.WithMaxNewTokens(-1)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("want ErrInvalidOption for negative max tokens, got %v", err)
	}
	if _, err := rethinkkv.New(rethinkkv.WithMaxNewTokens(0)); !errors.Is(err, rethinkkv.ErrInvalidOption) {
		t.Fatalf("want ErrInvalidOption for zero max tokens, got %v", err)
	}
	p, err := rethinkkv.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Generate(context.Background(), nil); !errors.Is(err, rethinkkv.ErrEmptyPrompt) {
		t.Fatalf("want ErrEmptyPrompt, got %v", err)
	}
	if _, err := p.Generate(context.Background(), []int{p.Vocab()}); !errors.Is(err, rethinkkv.ErrInvalidToken) {
		t.Fatalf("want ErrInvalidToken for out-of-vocab token, got %v", err)
	}
	if _, _, err := p.Run([]int{-1}, 1); !errors.Is(err, rethinkkv.ErrInvalidToken) {
		t.Fatalf("want ErrInvalidToken for negative token, got %v", err)
	}
	c, err := rethinkkv.NewCluster([]string{"fp16"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Router("round-robin"); !errors.Is(err, rethinkkv.ErrUnknownRouter) {
		t.Fatalf("want ErrUnknownRouter, got %v", err)
	}
}

func TestRegistries(t *testing.T) {
	has := func(list []string, want string) bool {
		for _, s := range list {
			if s == want {
				return true
			}
		}
		return false
	}
	for _, m := range []string{"fp16", "kivi-4", "gear-4", "h2o-512", "stream-512", "snapkv-512"} {
		if !has(rethinkkv.Methods(), m) {
			t.Fatalf("Methods() missing %q", m)
		}
	}
	if pm := rethinkkv.PaperMethods(); len(pm) != 5 || pm[0] != "fp16" {
		t.Fatalf("PaperMethods() = %v", pm)
	}
	for _, e := range []string{"trl", "trl+fa", "lmdeploy", "vllm"} {
		if !has(rethinkkv.Engines(), e) {
			t.Fatalf("Engines() missing %q", e)
		}
		if _, err := rethinkkv.NewSystem(rethinkkv.WithEngine(e)); err != nil {
			t.Fatalf("NewSystem(WithEngine(%q)): %v", e, err)
		}
	}
	for _, h := range []string{"a6000", "h800"} {
		if !has(rethinkkv.Hardware(), h) {
			t.Fatalf("Hardware() missing %q", h)
		}
	}
	if !has(rethinkkv.Models(), "llama-2-7b") || !has(rethinkkv.Models(), "mistral-7b") {
		t.Fatalf("Models() = %v", rethinkkv.Models())
	}
	want := []string{"baseline", "w/throughput", "w/length", "w/both"}
	got := rethinkkv.Routers()
	if len(got) != len(want) {
		t.Fatalf("Routers() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Routers() = %v, want %v", got, want)
		}
	}
	// Every listed method constructs a working pipeline and system.
	for _, m := range rethinkkv.Methods() {
		if _, err := rethinkkv.New(rethinkkv.WithMethod(m)); err != nil {
			t.Fatalf("New(%q): %v", m, err)
		}
		if _, err := rethinkkv.NewSystem(rethinkkv.WithMethod(m)); err != nil {
			t.Fatalf("NewSystem(%q): %v", m, err)
		}
	}
}

func TestSystemCostModel(t *testing.T) {
	sys, err := rethinkkv.NewSystem(
		rethinkkv.WithModel("llama-2-7b"), rethinkkv.WithHardware("a6000"),
		rethinkkv.WithEngine("lmdeploy"), rethinkkv.WithMethod("kivi-4"),
		rethinkkv.WithTP(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.TP() != 2 || sys.Method() != "kivi-4" || sys.Engine() != "lmdeploy" {
		t.Fatalf("accessors: tp=%d method=%s engine=%s", sys.TP(), sys.Method(), sys.Engine())
	}
	if thr := sys.DecodeThroughput(8, 4096); thr <= 0 {
		t.Fatalf("decode throughput %v", thr)
	}
	if r := sys.CompressionRatio(4096); r <= 1 {
		t.Fatalf("kivi-4 compression ratio %v", r)
	}
	fp, err := rethinkkv.NewSystem(rethinkkv.WithMethod("fp16"))
	if err != nil {
		t.Fatal(err)
	}
	kivi, err := rethinkkv.NewSystem(rethinkkv.WithMethod("kivi-4"))
	if err != nil {
		t.Fatal(err)
	}
	if kivi.MemoryRequired(8, 4096) >= fp.MemoryRequired(8, 4096)*3 {
		t.Fatal("kivi memory should not explode vs fp16")
	}
	if fp.DecodeThroughput(16, 8192) >= kivi.DecodeThroughput(16, 8192) {
		t.Fatal("compression should win decode at large batch × long KV")
	}
}

func TestClusterServeTrace(t *testing.T) {
	c, err := rethinkkv.NewCluster(
		[]string{"fp16", "stream-512"},
		rethinkkv.WithBatchCap(16), rethinkkv.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatalf("Size() = %d", c.Size())
	}
	if gm := c.GPUMethods(); gm[0] != "fp16" || gm[1] != "stream-512" {
		t.Fatalf("GPUMethods() = %v", gm)
	}
	reqs := rethinkkv.ShareGPTTrace(50, 20, 1)
	r, err := c.Router("baseline")
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ServeTrace(reqs, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("served %d of %d", len(out), len(reqs))
	}
	for _, o := range out {
		if o.E2E() <= 0 || o.TTFT() <= 0 || o.TTFT() > o.E2E() {
			t.Fatalf("inconsistent outcome %+v", o)
		}
		if o.GPU < 0 || o.GPU >= c.Size() {
			t.Fatalf("outcome on GPU %d", o.GPU)
		}
	}
	if rethinkkv.MeanE2E(out) <= 0 || len(rethinkkv.E2Es(out)) != len(out) {
		t.Fatal("latency summaries broken")
	}
}

func TestClusterPredictorRouters(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor training is slow")
	}
	c, err := rethinkkv.NewCluster(
		[]string{"fp16", "stream-512", "stream-512"},
		rethinkkv.WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	reqs := rethinkkv.ShareGPTTrace(120, 10, 2)
	for _, name := range rethinkkv.Routers() {
		r, err := c.Router(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != name {
			t.Fatalf("router %q reports name %q", name, r.Name())
		}
		out, err := c.ServeTrace(reqs, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) != len(reqs) {
			t.Fatalf("%s served %d of %d", name, len(out), len(reqs))
		}
	}
}

// rogueRouter answers out of range to exercise ServeTrace's guard.
type rogueRouter struct{ answer int }

func (r rogueRouter) Name() string { return "rogue" }
func (r rogueRouter) Route(req rethinkkv.Request, views []rethinkkv.GPUView) int {
	return r.answer
}

func TestServeTraceRejectsOutOfRangeRouter(t *testing.T) {
	c, err := rethinkkv.NewCluster([]string{"fp16", "fp16"}, rethinkkv.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs := rethinkkv.ShareGPTTrace(5, 10, 1)
	for _, bad := range []int{-1, 2, 99} {
		if _, err := c.ServeTrace(reqs, rogueRouter{answer: bad}); err == nil {
			t.Fatalf("router answer %d should be rejected", bad)
		}
	}
	// A custom in-range router is accepted.
	if _, err := c.ServeTrace(reqs, rogueRouter{answer: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatorFacade(t *testing.T) {
	ev, err := rethinkkv.NewEvaluator(rethinkkv.WithSeed(9), rethinkkv.WithContSteps(4))
	if err != nil {
		t.Fatal(err)
	}
	samples := ev.LongBenchSamples(4, 96, 1)
	if len(samples) != 4 {
		t.Fatalf("got %d samples", len(samples))
	}
	ref := ev.Baseline(samples[0])
	base, err := ev.Evaluate(ref, "fp16")
	if err != nil {
		t.Fatal(err)
	}
	if base.Retention != 1 || base.Agreement != 1 {
		t.Fatalf("fp16 self-eval %+v", base)
	}
	if _, err := ev.Evaluate(ref, "zip-9"); !errors.Is(err, rethinkkv.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
	r, err := ev.Evaluate(ref, "stream-256")
	if err != nil {
		t.Fatal(err)
	}
	set := rethinkkv.CollectNegatives(
		[]rethinkkv.EvalResult{base},
		map[string][]rethinkkv.EvalResult{"stream-256": {r}},
		[]string{"stream-256"}, 0.05)
	bd := rethinkkv.TaskBreakdown(set, samples)
	_ = rethinkkv.SortedGroups(bd)
}

func TestGenerateBatchMatchesRun(t *testing.T) {
	seq, err := rethinkkv.New(rethinkkv.WithMethod("stream-512"), rethinkkv.WithSeed(3), rethinkkv.WithMaxNewTokens(8))
	if err != nil {
		t.Fatal(err)
	}
	prompts := [][]int{testPrompt(16), testPrompt(9), testPrompt(32)}
	want := make([][]int, len(prompts))
	for i, p := range prompts {
		out, _, err := seq.Run(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	batch, err := rethinkkv.New(rethinkkv.WithMethod("stream-512"), rethinkkv.WithSeed(3), rethinkkv.WithMaxNewTokens(8))
	if err != nil {
		t.Fatal(err)
	}
	outs, reps, err := batch.GenerateBatch(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(prompts) || len(reps) != len(prompts) {
		t.Fatalf("got %d outputs, %d reports", len(outs), len(reps))
	}
	for i := range prompts {
		if len(outs[i]) != len(want[i]) {
			t.Fatalf("prompt %d: %d tokens != %d", i, len(outs[i]), len(want[i]))
		}
		for j := range want[i] {
			if outs[i][j] != want[i][j] {
				t.Fatalf("prompt %d token %d: %d != %d", i, j, outs[i][j], want[i][j])
			}
		}
		if reps[i].TokensProcessed != len(prompts[i])+8 {
			t.Fatalf("prompt %d report tokens = %d", i, reps[i].TokensProcessed)
		}
	}
}

// TestPipelineConcurrentCallsMatchSequential drives one Pipeline from many
// goroutines at once — Run, Generate and GenerateBatch side by side — and
// requires every output to equal the same call made alone: a pipeline keeps
// no per-call state, each call decodes on a cache and workspace of its own.
// make race-sched runs it under the race detector.
func TestPipelineConcurrentCallsMatchSequential(t *testing.T) {
	const maxNew = 8
	p, err := rethinkkv.New(rethinkkv.WithMethod("h2o-512"), rethinkkv.WithSeed(5), rethinkkv.WithMaxNewTokens(maxNew))
	if err != nil {
		t.Fatal(err)
	}
	prompts := [][]int{testPrompt(12), testPrompt(7), testPrompt(20)}
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		if want[i], _, err = p.Run(prompt, maxNew); err != nil {
			t.Fatal(err)
		}
	}
	check := func(call string, i int, got []int, err error) {
		if err != nil {
			t.Errorf("%s prompt %d: %v", call, i, err)
		} else if !slices.Equal(got, want[i]) {
			t.Errorf("%s prompt %d: %v, want %v", call, i, got, want[i])
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, prompt := range prompts {
			wg.Add(3)
			go func() {
				defer wg.Done()
				got, _, err := p.Run(prompt, maxNew)
				check("Run", i, got, err)
			}()
			go func() {
				defer wg.Done()
				ch, err := p.Generate(ctx, prompt)
				var got []int
				if err == nil {
					for tok := range ch {
						got = append(got, tok.ID)
					}
				}
				check("Generate", i, got, err)
			}()
			go func() {
				defer wg.Done()
				outs, _, err := p.GenerateBatch(ctx, prompts)
				if err != nil {
					t.Errorf("GenerateBatch: %v", err)
					return
				}
				for j, got := range outs {
					check("GenerateBatch", j, got, nil)
				}
			}()
		}
	}
	wg.Wait()
}

func TestGenerateBatchValidation(t *testing.T) {
	p, err := rethinkkv.New(rethinkkv.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := p.GenerateBatch(ctx, nil); !errors.Is(err, rethinkkv.ErrEmptyPrompt) {
		t.Fatalf("nil prompts: err = %v", err)
	}
	if _, _, err := p.GenerateBatch(ctx, [][]int{{1}, {}}); !errors.Is(err, rethinkkv.ErrEmptyPrompt) {
		t.Fatalf("empty prompt: err = %v", err)
	}
	if _, _, err := p.GenerateBatch(ctx, [][]int{{1}, {99999}}); !errors.Is(err, rethinkkv.ErrInvalidToken) {
		t.Fatalf("invalid token: err = %v", err)
	}
}

func TestGenerateBatchCancellation(t *testing.T) {
	p, err := rethinkkv.New(rethinkkv.WithSeed(1), rethinkkv.WithMaxNewTokens(64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, _, err := p.GenerateBatch(ctx, [][]int{testPrompt(8)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(outs) != 0 {
		t.Fatalf("pre-cancelled batch should do no decode work, got %d streams", len(outs))
	}
}
