package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

const seed = 11

func testPrompts() [][]int {
	return [][]int{
		{1, 2, 3, 4, 5},
		{100, 200, 300},
		{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		{42},
		{350, 351, 352, 353, 354, 355},
		{9, 8, 7, 6, 5, 4, 3, 2, 1},
	}
}

// sequentialReference decodes every prompt one after another through the
// plain pipeline — the ground truth continuous batching must reproduce.
func sequentialReference(t *testing.T, prompts [][]int, maxNew int) [][]int {
	t.Helper()
	m := model.New(model.Tiny(), seed)
	out := make([][]int, len(prompts))
	for i, prompt := range prompts {
		s, err := core.NewSession(m, kvcache.NewFull(m.CacheShape()), prompt)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s.Decode(maxNew)
	}
	return out
}

func collect(t *testing.T, ch <-chan Token) []int {
	t.Helper()
	var out []int
	for tok := range ch {
		out = append(out, tok.ID)
	}
	return out
}

// runEngine serves the prompts together, each capped at maxNew tokens and
// predicted to run predicted of them (0: no prediction, admission plans with
// maxNew). A prediction short of maxNew lets admission over-commit the page
// budget, which is how the preemption tests still reach preemption.
func runEngine(t *testing.T, cfg Config, prompts [][]int, maxNew, predicted int) ([][]int, *Engine) {
	t.Helper()
	m := model.New(model.Tiny(), seed)
	// Iteration 1 waits for the last Submit, so "the prompts arrive together"
	// holds however fast a step is: the tests that count packed chunks or
	// preemptions assume it.
	submitted := make(chan struct{})
	if cfg.StepHook == nil {
		cfg.StepHook = func(step int) {
			if step == 1 {
				<-submitted
			}
		}
	}
	e, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	chans := make([]<-chan Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompt, MaxNew: maxNew, Predicted: predicted, Arrival: -1})
		if err != nil {
			close(submitted)
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	close(submitted)
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return got, e
}

// The acceptance gate: a trace served with continuous batching produces
// per-request token sequences identical to sequential decoding.
func TestContinuousBatchingMatchesSequential(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	// MaxBatch below the request count forces queueing: requests join the
	// running batch as earlier ones finish (iteration-level batching).
	got, e := runEngine(t, Config{MaxBatch: 3, PageTokens: 8}, prompts, maxNew, 0)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != sequential %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := e.Stats()
	if st.Completed != len(prompts) {
		t.Fatalf("Completed = %d, want %d", st.Completed, len(prompts))
	}
	if st.PeakRunning < 2 {
		t.Fatalf("PeakRunning = %d: batching never happened", st.PeakRunning)
	}
	if st.Preemptions != 0 {
		t.Fatalf("unbudgeted run preempted %d times", st.Preemptions)
	}
}

// The second acceptance gate: a page budget small enough to force
// preemption still yields bit-identical streams after recompute.
func TestPreemptionRecomputeMatchesSequential(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	// Largest single request needs ceil((13+18)/4) = 8 pages; give the
	// pool barely more than two requests' worth so concurrent decode hits
	// the budget and evicts. Every request predicts a single token, so
	// admission plans for far less growth than the 18 each runs.
	cfg := Config{MaxBatch: 4, PageTokens: 4, KVPages: 14}
	got, e := runEngine(t, cfg, prompts, maxNew, 1)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != sequential %d (after preemption)", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := e.Stats()
	if st.Preemptions == 0 {
		t.Fatal("page budget never forced a preemption; test is vacuous")
	}
	if st.PeakPages > cfg.KVPages {
		t.Fatalf("PeakPages %d exceeded budget %d", st.PeakPages, cfg.KVPages)
	}
	out := e.Outcomes()
	pre := 0
	for _, o := range out {
		pre += o.Preemptions
	}
	if pre != st.Preemptions {
		t.Fatalf("outcome preemptions %d != stats %d", pre, st.Preemptions)
	}
}

// TestStepsByHandMatchSequential drives the calls the loop makes —
// reapQueueLocked, admitLocked, reapCancelled, preemptForStep, stepOnce — by
// hand on an engine with no loop goroutine, under
// TestPreemptionRecomputeMatchesSequential's budget and its one-token
// predictions. One request is cancelled while it waits in the queue and one
// once it has sent tokens from the running set; each must be gone after the
// call that reaps its list. The ledger must hold after every call, the
// cancelled streams must close short of their token count on a prefix of
// sequential decode, the other streams must equal it, and the budget must
// force a preemption.
func TestStepsByHandMatchSequential(t *testing.T) {
	prompts := append(testPrompts(), []int{11, 12, 13, 14}, []int{60, 61, 62})
	const maxNew = 18
	const queuedID, runningID = 6, 7 // the requests cancelled
	want := sequentialReference(t, prompts, maxNew)

	e, err := newEngine(model.New(model.Tiny(), seed), Config{MaxBatch: 4, PageTokens: 4, KVPages: 14})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Token, len(prompts))
	cancels := make([]context.CancelFunc, len(prompts))
	for i, prompt := range prompts {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ch, err := e.Submit(ctx, Request{ID: i, Prompt: prompt, MaxNew: maxNew, Predicted: 1, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i], cancels[i] = ch, cancel
	}
	find := func(list []*reqState, id int) *reqState {
		for _, rs := range list {
			if rs.req.ID == id {
				return rs
			}
		}
		return nil
	}
	check := func(iter int, after string) {
		t.Helper()
		if err := checkLedger(e); err != nil {
			t.Fatalf("iteration %d, after %s: %v", iter, after, err)
		}
	}
	queuedCut, runningCut := false, false
	for iter := 1; e.pending > 0; iter++ {
		if iter > 1000 {
			t.Fatalf("%d requests still pending after %d iterations", e.pending, iter)
		}
		if !queuedCut && iter > 1 && find(e.queue, queuedID) != nil {
			cancels[queuedID]()
			queuedCut = true
		}
		if rs := find(e.running, runningID); !runningCut && rs != nil && len(rs.generated) >= 2 {
			cancels[runningID]()
			runningCut = true
		}
		e.mu.Lock()
		e.reapQueueLocked()
		e.mu.Unlock()
		check(iter, "reapQueueLocked")
		if queuedCut && find(e.queue, queuedID) != nil {
			t.Fatalf("iteration %d: cancelled request %d still queued after reapQueueLocked", iter, queuedID)
		}
		e.mu.Lock()
		e.admitLocked()
		e.mu.Unlock()
		check(iter, "admitLocked")
		e.reapCancelled()
		check(iter, "reapCancelled")
		if runningCut && find(e.running, runningID) != nil {
			t.Fatalf("iteration %d: cancelled request %d still running after reapCancelled", iter, runningID)
		}
		e.preemptForStep()
		check(iter, "preemptForStep")
		if len(e.running) > 0 {
			e.stepOnce()
			check(iter, "stepOnce")
		}
	}
	if !queuedCut || !runningCut {
		t.Fatalf("cancelled while queued %v, while running %v: want both", queuedCut, runningCut)
	}
	for i, ch := range chans {
		got := collect(t, ch)
		switch {
		case i == queuedID && len(got) != 0:
			t.Fatalf("request %d, cancelled while queued, sent %d tokens", i, len(got))
		case i == runningID && (len(got) < 2 || len(got) >= maxNew):
			t.Fatalf("request %d, cancelled while running, sent %d tokens, want 2 to %d", i, len(got), maxNew-1)
		case i != queuedID && i != runningID && len(got) != len(want[i]):
			t.Fatalf("request %d: %d tokens, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != sequential %d", i, j, got[j], want[i][j])
			}
		}
	}
	if st := e.Stats(); st.Preemptions == 0 || st.Completed != len(prompts)-2 || st.Cancelled != 2 {
		t.Fatalf("Preemptions %d, Completed %d, Cancelled %d: want at least one preemption, %d completions and 2 cancellations",
			st.Preemptions, st.Completed, st.Cancelled, len(prompts)-2)
	}
}

func TestSJFPolicyMatchesSequential(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 12
	want := sequentialReference(t, prompts, maxNew)
	got, _ := runEngine(t, Config{MaxBatch: 2, PageTokens: 4, KVPages: 16, Policy: PolicySJF}, prompts, maxNew, 0)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d mismatch under SJF", i, j)
			}
		}
	}
}

func TestSubmitRejectsImpossibleRequest(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{PageTokens: 4, KVPages: 4, MaxNew: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// 16 prompt tokens + 8 new = 6 pages > 4-page budget.
	long := make([]int, 16)
	if _, err := e.Submit(context.Background(), Request{Prompt: long, Arrival: -1}); !errors.Is(err, kvcache.ErrOutOfPages) {
		t.Fatalf("oversized submit = %v, want ErrOutOfPages", err)
	}
	if _, err := e.Submit(context.Background(), Request{Arrival: -1}); err == nil {
		t.Fatal("empty prompt accepted")
	}
}

func TestCancelledRequestRetiresEarly(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := e.Submit(ctx, Request{ID: 1, Prompt: []int{1, 2, 3}, MaxNew: 500, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	<-ch // first token out
	cancel()
	n := 1
	for range ch {
		n++
	}
	if n >= 500 {
		t.Fatalf("cancelled request decoded all %d tokens", n)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := e.Drain(dctx); err != nil {
		t.Fatalf("drain after cancel: %v", err)
	}
	if st := e.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

// A queued (never admitted) request whose ctx is cancelled must have its
// stream closed promptly, not when admission eventually reaches it.
func TestCancelledWhileQueuedClosesPromptly(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Occupy the single batch slot with a long-running request.
	_, err = e.Submit(context.Background(), Request{ID: 0, Prompt: []int{1, 2}, MaxNew: 4000, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := e.Submit(ctx, Request{ID: 1, Prompt: []int{3}, MaxNew: 8, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("cancelled queued request emitted a token")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued request's stream did not close while admission was blocked")
	}
}

func TestCloseFailsPendingAndRejectsSubmit(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	e, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Submit(context.Background(), Request{Prompt: []int{1}, MaxNew: 100000, Arrival: -1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	for range ch { // stream must terminate
	}
	if _, err := e.Submit(context.Background(), Request{Prompt: []int{1}, Arrival: -1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("drain after close = %v, want ErrClosed", err)
	}
}

func TestOutcomesMetricsSane(t *testing.T) {
	prompts := testPrompts()
	_, e := runEngine(t, Config{MaxBatch: 4, PageTokens: 8}, prompts, 8, 0)
	out := e.Outcomes()
	if len(out) != len(prompts) {
		t.Fatalf("%d outcomes, want %d", len(out), len(prompts))
	}
	for _, o := range out {
		if o.RespLen != 8 {
			t.Fatalf("request %d RespLen %d, want 8", o.Req.ID, o.RespLen)
		}
		if o.TTFT() < 0 || o.E2E() < o.TTFT() || o.Finish < o.FirstToken {
			t.Fatalf("request %d: inconsistent timing %+v", o.Req.ID, o)
		}
		if o.TBOT() < 0 {
			t.Fatalf("request %d: negative TBOT", o.Req.ID)
		}
	}
}

// Prefix caching must be invisible in the output: a server configured
// with a shared prefix emits bit-identical streams to sequential cold
// decode of the full prompts, with and without page pressure.
func TestSharedPrefixBitIdentical(t *testing.T) {
	prefix := make([]int, 21) // not page-aligned on purpose
	for i := range prefix {
		prefix[i] = (i * 13) % 512
	}
	suffixes := [][]int{{1, 2}, {3}, {4, 5, 6}, {7, 8}, {9}}
	prompts := make([][]int, len(suffixes))
	for i, sfx := range suffixes {
		prompts[i] = append(append([]int(nil), prefix...), sfx...)
	}
	const maxNew = 10
	want := sequentialReference(t, prompts, maxNew)

	for _, cfg := range []Config{
		{MaxBatch: 3, PageTokens: 8, SharedPrefix: prefix},
		// Tight budget: prefix takes 6 pages, leaving 14 for private
		// pages; requests need up to ceil(34/4)-5 = 4 each privately.
		{MaxBatch: 5, PageTokens: 4, KVPages: 20, SharedPrefix: prefix},
	} {
		got, e := runEngine(t, cfg, prompts, maxNew, 0)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("cfg %+v request %d: %d tokens, want %d", cfg, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("cfg %+v request %d token %d: %d != cold %d", cfg, i, j, got[i][j], want[i][j])
				}
			}
		}
		st := e.Stats()
		if st.PrefixHits < len(prompts) {
			t.Fatalf("PrefixHits = %d, want >= %d", st.PrefixHits, len(prompts))
		}
		if st.PrefixTokensSaved < len(prompts)*len(prefix) {
			t.Fatalf("PrefixTokensSaved = %d too low", st.PrefixTokensSaved)
		}
		if cfg.KVPages > 0 && st.PeakPages > cfg.KVPages {
			t.Fatalf("PeakPages %d exceeded budget %d", st.PeakPages, cfg.KVPages)
		}
		// Nothing is preempted without a budget, so every admission is a
		// first one, and each takes the pre-warmed prefix whole, partial last
		// page included — no more, since the suffixes share nothing.
		if cfg.KVPages == 0 && (st.PrefixHits != len(prompts) || st.PrefixTokensSaved != len(prompts)*len(prefix)) {
			t.Fatalf("%d hits saved %d tokens, want %d saving exactly %d each", st.PrefixHits, st.PrefixTokensSaved, len(prompts), len(prefix))
		}
	}
}

// A prompt that does not start with the prefix must still be served (cold),
// and one that stops inside it reuses what it can: every token but its last,
// whose logits decide the first output and are not cached.
func TestSharedPrefixMissFallsBack(t *testing.T) {
	prefix := []int{5, 6, 7, 8}
	prompts := [][]int{
		append(append([]int(nil), prefix...), 9), // hit: the whole prefix
		{1, 2, 3},                                // miss
		append([]int(nil), prefix...),            // equal length: hit on all but the last token
	}
	const maxNew = 8
	want := sequentialReference(t, prompts, maxNew)
	got, e := runEngine(t, Config{MaxBatch: 2, PageTokens: 4, SharedPrefix: prefix}, prompts, maxNew, 0)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d mismatch", i, j)
			}
		}
	}
	if st := e.Stats(); st.PrefixHits != 2 || st.PrefixTokensSaved != len(prefix)+len(prefix)-1 {
		t.Fatalf("PrefixHits = %d saving %d tokens, want 2 saving %d", st.PrefixHits, st.PrefixTokensSaved, 2*len(prefix)-1)
	}
}

// TestSharedPrefixBudgetTooSmall: a prefix that fills the whole budget, or
// needs more pages than it has (three 16-token pages against two), is refused
// with the typed error before any of it is prefilled.
func TestSharedPrefixBudgetTooSmall(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	for _, c := range []struct{ prefix, pageTokens, pages int }{{32, 4, 8}, {40, 16, 2}} {
		if _, err := New(m, Config{PageTokens: c.pageTokens, KVPages: c.pages, SharedPrefix: make([]int, c.prefix)}); !errors.Is(err, kvcache.ErrOutOfPages) {
			t.Fatalf("%d-token prefix in %d-token pages under a %d-page budget = %v, want ErrOutOfPages", c.prefix, c.pageTokens, c.pages, err)
		}
	}
}

func TestBadPolicyRejected(t *testing.T) {
	m := model.New(model.Tiny(), seed)
	if _, err := New(m, Config{Policy: "round-robin"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestEmitAllocFree pins streaming a request's tokens at 0 allocations: the
// token record is sized to the request's budget at Submit, so emitLocked's
// append never grows it. Each run emits MaxNew−1 tokens (no retirement) into
// a request of its own, fresh from Submit.
func TestEmitAllocFree(t *testing.T) {
	const runs, maxNew = 10, 64
	e, err := newEngine(model.New(model.Tiny(), seed), Config{MaxBatch: 4, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= runs; i++ {
		if _, err := e.Submit(context.Background(), Request{ID: i, Prompt: []int{1, 2, 3}, MaxNew: maxNew, Arrival: -1}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		rs := e.queue[next]
		next++
		e.mu.Lock()
		for tok := 1; tok < maxNew; tok++ {
			e.emitLocked(rs, tok, 0)
		}
		e.mu.Unlock()
	})
	if n != 0 {
		t.Fatalf("emitting %d tokens allocated %.1f per request, want 0", maxNew-1, n)
	}
}
