package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
	"rethinkkv/internal/router"
	"rethinkkv/internal/sched"
	"rethinkkv/internal/serving"
	"rethinkkv/internal/workload"
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
// plain pipeline — the ground truth any pool serve, migrated or not, must
// reproduce bit-identically.
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

func collect(t *testing.T, ch <-chan sched.Token) []int {
	t.Helper()
	var out []int
	for tok := range ch {
		out = append(out, tok.ID)
	}
	return out
}

func newPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	m := model.New(model.Tiny(), seed)
	p, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAndCheckPages(t, p, m) })
	return p
}

// closeAndCheckPages closes the pool and checks that every engine, healthy or
// failed, got back from its requests every KV page it lent them: what its
// page pool still has out is the prefix cache's, in every layer.
func closeAndCheckPages(t *testing.T, p *Pool, m *model.Model) {
	t.Helper()
	p.Close()
	for i, st := range p.Stats().Engines {
		if want := m.CacheShape().Layers * st.PrefixCachePages; st.PoolPagesOut != want {
			t.Errorf("engine %d after Close: %d layer-pages out of its pool, want %d for %d cached pages",
				i, st.PoolPagesOut, want, st.PrefixCachePages)
		}
	}
}

// firstPassGate holds an engine in its first pass until every request of a
// test is queued, so the next admission sees them all whatever the host's
// load: the pass is the first prompt's alone.
type firstPassGate struct {
	entered, release chan struct{}
	once             sync.Once
}

func newFirstPassGate() *firstPassGate {
	return &firstPassGate{entered: make(chan struct{}), release: make(chan struct{})}
}

// hold is the engines' StepHook. The tests pin every request to engine 0, so
// engine 1 first steps on a migrated request, after release, and is not held.
func (g *firstPassGate) hold(step int) {
	if step == 1 {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
}

// submitAll submits the prompts in order, the rest only once the first has
// reached the held pass, then releases it. Every request predicts a single
// token, so admission over-commits engine 0's budget the way the tests'
// arithmetic assumes and the growth it did not plan for preempts.
func (g *firstPassGate) submitAll(t *testing.T, p *Pool, prompts [][]int, maxNews []int) []<-chan sched.Token {
	t.Helper()
	chans := make([]<-chan sched.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := p.Submit(context.Background(), sched.Request{ID: i, Prompt: prompt, MaxNew: maxNews[i], Predicted: 1, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
		if i == 0 {
			<-g.entered
		}
	}
	close(g.release)
	return chans
}

func drain(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func assertBitIdentical(t *testing.T, got, want [][]int, label string) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s request %d: %d tokens, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s request %d token %d: %d != sequential %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// pinRouter sends every request to one fixed engine — the tool for forcing
// KV pressure on a single replica while the rest of the pool idles.
type pinRouter struct{ to int }

func (p pinRouter) Name() string { return "pin" }
func (p pinRouter) Route(workload.Request, []serving.GPUView) int {
	return p.to
}

// TestFleetMatchesSequential is the pool's base acceptance gate: requests
// routed across two unbudgeted engines stream token sequences bit-identical
// to sequential single-pipeline decoding.
func TestFleetMatchesSequential(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	p := newPool(t, Config{
		Engines: 2,
		Router:  router.Baseline{},
		Engine:  sched.Config{MaxBatch: 3, PageTokens: 8},
	})
	chans := make([]<-chan sched.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := p.Submit(context.Background(), sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "fleet")

	st := p.Stats()
	completed, routed := 0, 0
	for _, es := range st.Engines {
		completed += es.Completed
	}
	for _, n := range st.Routed {
		routed += n
	}
	if completed != len(prompts) {
		t.Fatalf("Completed across engines = %d, want %d", completed, len(prompts))
	}
	if routed != len(prompts) {
		t.Fatalf("Routed sums to %d, want %d", routed, len(prompts))
	}
	outs := p.Outcomes()
	if len(outs) != len(prompts) {
		t.Fatalf("Outcomes = %d, want %d", len(outs), len(prompts))
	}
	for i, o := range outs {
		if o.Req.ID != i {
			t.Fatalf("outcome %d has ID %d; not sorted by request ID", i, o.Req.ID)
		}
		if o.RespLen != maxNew {
			t.Fatalf("outcome %d RespLen = %d, want %d", i, o.RespLen, maxNew)
		}
	}
}

// TestDecodeMigrationBitIdentical pins every request onto engine 0 with a
// page budget and one-token predictions known (from the sched preemption
// gate) to force evictions.
// With an idle engine 1 holding the same budget, victims must migrate and
// every stream — including the migrated ones — must stay bit-identical to
// sequential decoding.
func TestDecodeMigrationBitIdentical(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Engine:  sched.Config{MaxBatch: 4, PageTokens: 4, KVPages: 14},
	})
	chans := make([]<-chan sched.Token, len(prompts))
	for i, prompt := range prompts {
		ch, err := p.Submit(context.Background(), sched.Request{ID: i, Prompt: prompt, MaxNew: maxNew, Predicted: 1, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "migrated")

	st := p.Stats()
	if st.Migrations == 0 {
		t.Fatal("budget never forced a migration; test is vacuous")
	}
	if st.Engines[0].MigratedOut == 0 {
		t.Fatal("engine 0 reports no migrated-out victims")
	}
	if st.Routed[0] != len(prompts) || st.Routed[1] != 0 {
		t.Fatalf("Routed = %v, want all %d on engine 0", st.Routed, len(prompts))
	}
	hops, onOther := 0, 0
	for _, o := range p.Outcomes() {
		hops += o.Preemptions
		if o.GPU == 1 {
			onOther++
		}
	}
	if hops < st.Migrations {
		t.Fatalf("outcome hops %d < pool migrations %d", hops, st.Migrations)
	}
	if onOther == 0 {
		t.Fatal("no outcome finished on the migration target")
	}
}

// TestMidPrefillMigrationBitIdentical forces the eviction to land in the
// middle of a chunked prefill (the sched mid-prefill gate's shape, one page
// looser so the victim's whole remaining lifetime fits the idle engine) and
// checks the hop: the long request must re-prefill on engine 1 and still
// stream bit-identically.
func TestMidPrefillMigrationBitIdentical(t *testing.T) {
	short := []int{1, 2}
	long := make([]int, 30)
	for i := range long {
		long[i] = (i*11 + 5) % 512
	}
	prompts := [][]int{short, long}
	maxNews := []int{10, 4}

	m := model.New(model.Tiny(), seed)
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		s, err := core.NewSession(m, kvcache.NewFull(m.CacheShape()), prompt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.Decode(maxNews[i])
	}

	// Budget arithmetic (PageTokens=4, KVPages=10): the step gate holds
	// engine 0 in its first pass (short's prefill) until the long request is
	// queued, so the next admission takes it beside short: short 1 + long 8
	// = 9 pages. Short's decode opens its second page at position 4 (pass 4)
	// and its third at position 8 (pass 8), overflowing the budget after only
	// passes 2-7 — 6 of the long prompt's 8 chunks — so FCFS evicts the
	// newest arrival, the long request, mid-prefill. Its lifetime need is
	// PagesFor(30+4)+1 = 10 pages, which exactly fits the idle engine 1, so
	// the hook migrates it. Without the gate a loaded host can run short past
	// pass 8 before the long request arrives; it then waits for pages instead
	// of being evicted and the test is vacuous.
	gate := newFirstPassGate()
	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Engine: sched.Config{
			MaxBatch: 2, PageTokens: 4, KVPages: 10, PrefillChunk: 4,
			StepHook: gate.hold,
		},
	})
	chans := gate.submitAll(t, p, prompts, maxNews)
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "mid-prefill migrated")

	st := p.Stats()
	if st.Migrations == 0 {
		t.Fatal("budget never forced a migration; test is vacuous")
	}
	if st.Engines[0].PrefillPreempted == 0 {
		t.Fatal("no eviction landed mid-prefill; test is vacuous")
	}
	outs := p.Outcomes()
	if outs[1].GPU != 1 {
		t.Fatalf("long request finished on engine %d, want the migration target 1", outs[1].GPU)
	}
	if outs[1].Preemptions == 0 {
		t.Fatal("long request's outcome records no migration hop")
	}
}

// TestBadRouteTyped pins the typed sentinel: a router stepping outside
// [0, engines) must fail Submit with ErrBadRoute.
func TestBadRouteTyped(t *testing.T) {
	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 2},
		Engine:  sched.Config{},
	})
	_, err := p.Submit(context.Background(), sched.Request{ID: 0, Prompt: []int{1, 2, 3}, MaxNew: 4})
	if !errors.Is(err, ErrBadRoute) {
		t.Fatalf("err = %v, want ErrBadRoute", err)
	}
	if p.Stats().Routed[0] != 0 {
		t.Fatal("misrouted request was counted as placed")
	}
}

// TestClosedPoolSemantics mirrors the engine contract: Submit and Drain
// against a closed pool fail with sched.ErrClosed.
func TestClosedPoolSemantics(t *testing.T) {
	p := newPool(t, Config{Engines: 1, Router: router.Baseline{}, Engine: sched.Config{}})
	p.Close()
	p.Close() // idempotent
	if _, err := p.Submit(context.Background(), sched.Request{Prompt: []int{1}}); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := p.Drain(context.Background()); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("drain after close: %v, want ErrClosed", err)
	}
}

// TestViewsSampleLiveState checks the router-visible views against real
// engine state: a fresh bounded pool advertises its full page budget, and a
// submitted request shows up in its target's backlog while the other engine
// stays empty.
func TestViewsSampleLiveState(t *testing.T) {
	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Engine:  sched.Config{PageTokens: 4, KVPages: 20},
	})
	for i, v := range p.Views(0) {
		if v.PageBudget != 20 || v.PageTokens != 4 {
			t.Fatalf("view %d budget %d/%d, want 20/4", i, v.PageBudget, v.PageTokens)
		}
		if v.FreePages != 20 {
			t.Fatalf("fresh view %d FreePages = %d, want 20", i, v.FreePages)
		}
	}
	ch, err := p.Submit(context.Background(), sched.Request{ID: 0, Prompt: []int{5, 6, 7}, MaxNew: 60})
	if err != nil {
		t.Fatal(err)
	}
	views := p.Views(p.now())
	if views[0].QueuedTokens == 0 {
		t.Fatal("engine 0 backlog invisible after submit")
	}
	if views[1].QueuedTokens != 0 || views[1].Running != 0 {
		t.Fatalf("idle engine 1 shows load: %+v", views[1])
	}
	for range ch {
	}
	drain(t, p)
	final := p.Views(p.now())
	if final[0].FreePages != 20 {
		t.Fatalf("drained view FreePages = %d, want 20 (pages leaked)", final[0].FreePages)
	}
}

// TestConcurrentSubmitStress drives the pool from many goroutines under a
// tight budget, migrations included — primarily a data-race canary for
// `go test -race ./internal/fleet`. Every request is pinned to engine 0 and
// predicts a single token, so admission over-commits its budget and the
// growth it did not plan for preempts, while engines 1 and 2 idle with room:
// victims migrate, under concurrent Submits, in every run.
func TestConcurrentSubmitStress(t *testing.T) {
	prompts := testPrompts()
	const maxNew = 18
	want := sequentialReference(t, prompts, maxNew)

	p := newPool(t, Config{
		Engines: 3,
		Router:  pinRouter{to: 0},
		Engine:  sched.Config{MaxBatch: 4, PageTokens: 4, KVPages: 14},
	})
	const rounds = 3
	got := make([][][]int, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		got[r] = make([][]int, len(prompts))
		for i, prompt := range prompts {
			wg.Add(1)
			go func(r, i int, prompt []int) {
				defer wg.Done()
				ch, err := p.Submit(context.Background(), sched.Request{
					ID: r*len(prompts) + i, Prompt: prompt, MaxNew: maxNew, Predicted: 1, Arrival: -1,
				})
				if err != nil {
					t.Errorf("submit %d/%d: %v", r, i, err)
					return
				}
				for tok := range ch {
					got[r][i] = append(got[r][i], tok.ID)
				}
			}(r, i, prompt)
		}
	}
	wg.Wait()
	drain(t, p)
	for r := 0; r < rounds; r++ {
		assertBitIdentical(t, got[r], want, "stress")
	}
	if len(p.Outcomes()) != rounds*len(prompts) {
		t.Fatalf("outcomes %d, want %d", len(p.Outcomes()), rounds*len(prompts))
	}
	if st := p.Stats(); st.Migrations == 0 {
		t.Fatalf("no victim migrated over %d rounds (Routed %v); the stress is vacuous", rounds, st.Routed)
	}
}

// TestPackedMidPrefillMigrationBitIdentical is the budget-packing variant of
// the mid-prefill migration gate: with a TokenBudget, engine 0 carries TWO
// long prompts mid-prefill in the same budgeted passes when the short
// request's decode page-open overflows the KV budget. The FCFS victim is the
// newest arrival — one of several in-flight prefills — and must migrate to
// the idle engine 1 and finish there bit-identically, while the survivor's
// packed prefill continues untouched on engine 0.
func TestPackedMidPrefillMigrationBitIdentical(t *testing.T) {
	short := []int{1, 2}
	long1 := make([]int, 28)
	long2 := make([]int, 24)
	for i := range long1 {
		long1[i] = (i*3 + 5) % 512
	}
	for i := range long2 {
		long2[i] = (i*7 + 11) % 512
	}
	prompts := [][]int{short, long1, long2}
	maxNews := []int{6, 4, 4}

	m := model.New(model.Tiny(), seed)
	want := make([][]int, len(prompts))
	for i, prompt := range prompts {
		s, err := core.NewSession(m, kvcache.NewFull(m.CacheShape()), prompt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s.Decode(maxNews[i])
	}

	// Budget arithmetic (PageTokens=4, KVPages=16): admission reserves
	// short 1 + long1 7+1 + long2 6+1 = 16 pages — the whole budget. The
	// generous TokenBudget packs both long prompts' chunks into each pass
	// alongside short's decode; short's page-open at position 4 then evicts
	// the newest arrival (long2) mid-prefill. Its lifetime need,
	// PagesFor(24+4)+1 = 8, fits the idle engine 1, so the hook migrates it.
	// The step gate holds engine 0 before its first pass until all three
	// requests are queued, making the whole trace deterministic.
	gate := newFirstPassGate()
	p := newPool(t, Config{
		Engines: 2,
		Router:  pinRouter{to: 0},
		Engine: sched.Config{
			MaxBatch: 3, PageTokens: 4, KVPages: 16, PrefillChunk: 4, TokenBudget: 32,
			StepHook: gate.hold,
		},
	})
	chans := gate.submitAll(t, p, prompts, maxNews)
	got := make([][]int, len(prompts))
	for i, ch := range chans {
		got[i] = collect(t, ch)
	}
	drain(t, p)
	assertBitIdentical(t, got, want, "packed mid-prefill migrated")

	st := p.Stats()
	if st.Migrations == 0 {
		t.Fatal("budget never forced a migration; test is vacuous")
	}
	if st.Engines[0].PrefillPreempted == 0 {
		t.Fatal("no eviction landed mid-prefill; test is vacuous")
	}
	if st.Engines[0].PackedChunks == 0 {
		t.Fatal("the two long prompts never shared a budgeted pass; test is vacuous")
	}
	outs := p.Outcomes()
	if outs[2].GPU != 1 {
		t.Fatalf("victim finished on engine %d, want the migration target 1", outs[2].GPU)
	}
	if outs[2].Preemptions == 0 {
		t.Fatal("victim's outcome records no migration hop")
	}
}
