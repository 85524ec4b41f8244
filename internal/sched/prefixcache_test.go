package sched

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

// checkLedger verifies the page ledger and the prefix tree against each
// other. It reads loop-private state, so it runs either on the loop goroutine
// (from a StepHook or Migrate hook, which hold no lock) or after Close, once
// the loop has exited.
//
//   - privatePages is the sum of the running requests' private charges, each
//     of which is what the request's cache needs beyond its cached path;
//   - tree.pages / tree.pinned count the tree's nodes / its referenced nodes;
//   - a node's refs is the number of running requests on whose path it lies,
//     plus one if pre-warmed — so no node is both unpinned and referenced;
//   - every request's path is a root-first chain spelling its own tokens;
//   - the unpinned ring holds exactly the unreferenced nodes, each behind all
//     of its descendants, so its head is a leaf;
//   - charged pages stay within the page budget, and without one the
//     unpinned pages within the retention bound.
func checkLedger(e *Engine) error {
	pt := e.cfg.PageTokens
	refs := map[*pageNode]int{}
	private := 0
	for _, rs := range e.running {
		private += rs.pages
		held := kvcache.PagesFor(max(len(rs.prompt), rs.cache.TotalAppended()), pt)
		if rs.reserved {
			held++
		}
		if rs.pages != held-len(rs.nodes) {
			return fmt.Errorf("request %d: private charge %d, want %d held - %d cached", rs.req.ID, rs.pages, held, len(rs.nodes))
		}
		if len(rs.nodes) > rs.sealable || len(rs.nodes)*pt > rs.cache.TotalAppended() {
			return fmt.Errorf("request %d: %d cached pages, sealable %d, %d tokens in cache", rs.req.ID, len(rs.nodes), rs.sealable, rs.cache.TotalAppended())
		}
		parent := &e.tree.root
		for i, n := range rs.nodes {
			run := make([]int, pt)
			for p := range run {
				run[p] = rs.tokenAt(i*pt + p)
			}
			if n.parent != parent || n.key != string(appendKey(nil, run)) || parent.children[n.key] != n {
				return fmt.Errorf("request %d: path node %d is not its page %d in the tree", rs.req.ID, i, i)
			}
			refs[n]++
			parent = n
		}
	}
	if private != e.privatePages {
		return fmt.Errorf("privatePages = %d, running requests hold %d", e.privatePages, private)
	}
	ring := map[*pageNode]int{}
	for n, i := e.tree.idle.next, 0; n != &e.tree.idle; n, i = n.next, i+1 {
		if n.next.prev != n || i > e.tree.pages {
			return fmt.Errorf("unpinned ring is corrupt at position %d", i)
		}
		ring[n] = i
	}
	if head := e.tree.idle.next; head != &e.tree.idle && len(head.children) != 0 {
		return fmt.Errorf("head of the unpinned ring has %d children", len(head.children))
	}
	pages, pinned := 0, 0
	var walk func(n *pageNode) error
	walk = func(n *pageNode) error {
		for _, c := range n.children {
			pages++
			want := refs[c]
			if c.permanent {
				want++
			}
			if c.refs != want {
				return fmt.Errorf("node at depth %d: refs %d, referenced by %d", depth(c), c.refs, want)
			}
			pos, idle := ring[c]
			switch {
			case c.refs > 0:
				pinned++
				if idle || n.refs == 0 && n != &e.tree.root {
					return fmt.Errorf("pinned node at depth %d is on the unpinned ring or under an unpinned parent", depth(c))
				}
			case !idle:
				return fmt.Errorf("unpinned node at depth %d is not on the ring", depth(c))
			case n.refs == 0 && n != &e.tree.root && ring[n] < pos:
				return fmt.Errorf("unpinned node at depth %d would be evicted before its child", depth(n))
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(&e.tree.root); err != nil {
		return err
	}
	if pages != e.tree.pages || pinned != e.tree.pinned || len(ring) != pages-pinned {
		return fmt.Errorf("tree counts %d pages %d pinned, walk found %d and %d, ring holds %d", e.tree.pages, e.tree.pinned, pages, pinned, len(ring))
	}
	if e.pageBudget > 0 && e.chargedPages() > e.pageBudget {
		return fmt.Errorf("charged %d pages, budget %d", e.chargedPages(), e.pageBudget)
	}
	if e.pageBudget == 0 && pages-pinned > e.tree.idleCap {
		return fmt.Errorf("%d unpinned pages retained, bound %d", pages-pinned, e.tree.idleCap)
	}
	return nil
}

func depth(n *pageNode) int {
	d := 0
	for ; n.parent != nil; n = n.parent {
		d++
	}
	return d
}

// checkVictimLedger runs from the Migrate hook, right after a preemption
// victim released its pages: a request is only ever preempted once the cache
// has nothing left to evict, so every unpinned page must be one the victim
// just let go — a single chain no deeper than the victim's own cache.
func checkVictimLedger(e *Engine, req Request, generated int) error {
	if err := checkLedger(e); err != nil {
		return err
	}
	leaves := 0
	for n := e.tree.idle.next; n != &e.tree.idle; n = n.next {
		if d := depth(n); d > (len(req.Prompt)+generated)/e.cfg.PageTokens {
			return fmt.Errorf("request %d preempted while an unpinned page sat at depth %d", req.ID, d)
		}
		if len(n.children) == 0 {
			leaves++
		}
	}
	if leaves > 1 {
		return fmt.Errorf("request %d preempted while %d unpinned chains existed", req.ID, leaves)
	}
	return nil
}

// stepAudit checks that every token a request is sent has exactly one cause —
// the Final chunk of an admission's prefill, or a decode lane-step that is not
// re-advancing a replay tail — and that the token leaves in the iteration of
// its cause. before runs from the StepHook (on the loop goroutine, which owns
// the state it reads) and once more after Close: it settles the iteration just
// finished against the snapshot taken at its top, then snapshots the next.
type stepAudit struct {
	prev map[*reqState]auditSnap
	// lanes counts decode lane-steps per request ID; silent, those that fed
	// a replay tail and sent nothing; finals, the Final chunks.
	lanes          map[int]int
	silent, finals int
	err            error
}

type auditSnap struct {
	lane              bool // had a session: stepped as a decode lane
	replay, generated int
}

func (a *stepAudit) before(e *Engine, step int) {
	for rs, was := range a.prev {
		sent := len(rs.generated) - was.generated
		want := 0
		switch {
		case was.lane && was.replay > 1:
			a.silent++
		case was.lane:
			want = 1
		case was.replay == 0 && sent == 1:
			// Mid-prefill with no replay tail: its chunk may have been Final.
			a.finals++
			want = 1
		case was.replay == 0 && rs.sess != nil && rs.replay == 0:
			want = 1 // prefill completed: the token it decided is due at once
		}
		if sent != want && a.err == nil {
			a.err = fmt.Errorf("iteration %d sent request %d %d tokens, want %d (lane %v, replay %d)", step-1, rs.req.ID, sent, want, was.lane, was.replay)
		}
	}
	clear(a.prev)
	for _, rs := range e.running {
		a.prev[rs] = auditSnap{lane: rs.sess != nil, replay: rs.replay, generated: len(rs.generated)}
		if rs.sess != nil {
			a.lanes[rs.req.ID]++
		}
	}
}

// genReq is one request of a generated schedule. cancelAfter >= 0 cancels
// the request's context once that many tokens have been received.
type genReq struct {
	prompt      []int
	maxNew      int
	cancelAfter int
}

// genSchedule is a seeded workload: waves of requests submitted together,
// each wave after the previous one's streams have closed, so later waves find
// what earlier ones left in the cache.
type genSchedule struct {
	prefix []int // Config.SharedPrefix, or nil
	waves  [][]genReq
}

func (s genSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SharedPrefix %v\n", s.prefix)
	for w, wave := range s.waves {
		for i, r := range wave {
			fmt.Fprintf(&b, "wave %d req %d: maxNew %d cancelAfter %d prompt %v\n", w, i, r.maxNew, r.cancelAfter, r.prompt)
		}
	}
	return b.String()
}

// generate draws zipf-weighted prefix families with unique suffixes, unique
// prompts and cancels from the seed. One request in six wants a single token
// (no decode step at all) and one prompt in four ends on a page boundary (the
// first decode step, if there is one, opens a page).
func generate(seed int64, pageTokens int) genSchedule {
	r := rand.New(rand.NewSource(seed))
	families := make([][]int, 4)
	for f := range families {
		families[f] = make([]int, 3+r.Intn(20))
		for i := range families[f] {
			families[f][i] = r.Intn(512)
		}
	}
	var s genSchedule
	if r.Intn(2) == 0 {
		s.prefix = families[0]
	}
	for w := 0; w < 5; w++ {
		wave := make([]genReq, 1+r.Intn(5))
		for i := range wave {
			var prompt []int
			n := 1 + r.Intn(6)
			if r.Intn(10) < 7 {
				f := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3}[r.Intn(15)]
				prompt = append(prompt, families[f]...)
			} else {
				n += r.Intn(14)
			}
			if r.Intn(4) == 0 {
				n += (pageTokens - (len(prompt)+n)%pageTokens) % pageTokens
			}
			for ; n > 0; n-- {
				prompt = append(prompt, r.Intn(512))
			}
			req := genReq{prompt: prompt, maxNew: 1 + r.Intn(12), cancelAfter: -1}
			if r.Intn(6) == 0 {
				req.maxNew = 1
			}
			if r.Intn(7) == 0 {
				req.cancelAfter = r.Intn(req.maxNew)
			}
			wave[i] = req
		}
		s.waves = append(s.waves, wave)
	}
	return s
}

// TestGeneratedSchedulesMatchOracle serves seeded schedules on every page
// format, dense and sparse, unbounded and under a page budget tight enough to
// force eviction and preemption, across chunking settings. Every stream must
// equal sequential decode, the ledger must hold after every step, at every
// preemption, after Drain and after Close, and every token must leave in the
// iteration of its one cause (stepAudit). A failing seed prints its schedule.
func TestGeneratedSchedulesMatchOracle(t *testing.T) {
	const pageTokens, topK = 4, 2
	chunking := []struct{ chunk, budget int }{{0, 0}, {3, 0}, {4, 9}}
	preemptions, evictions, hits, exact := 0, 0, 0, 0
	for _, bits := range []int{0, 8, 4} {
		for _, sparse := range []bool{false, true} {
			for _, tight := range []bool{false, true} {
				for ci, ck := range chunking {
					seed := int64(1000*bits + 100*ci + 7)
					if sparse {
						seed += 10
					}
					if tight {
						seed++
					}
					name := fmt.Sprintf("int%d/sparse=%v/tight=%v/chunk=%d,%d/seed=%d", bits, sparse, tight, ck.chunk, ck.budget, seed)
					t.Run(name, func(t *testing.T) {
						cfg := Config{MaxBatch: 4, PageTokens: pageTokens, KVQuantBits: bits, PrefillChunk: ck.chunk, TokenBudget: ck.budget}
						k := 0
						if sparse {
							k = topK
						}
						st, unbroken := runGenerated(t, generate(seed, pageTokens), cfg, k, tight)
						if unbroken {
							exact++
						}
						preemptions += st.Preemptions
						evictions += st.PrefixEvictions
						hits += st.PrefixHits
					})
				}
			}
		}
	}
	if preemptions == 0 || evictions == 0 || hits == 0 || exact == 0 {
		t.Fatalf("vacuous: %d preemptions, %d evictions, %d prefix hits, %d runs with lane-steps exact from Stats over all schedules", preemptions, evictions, hits, exact)
	}
}

// runGenerated serves one schedule and returns the engine's counters, and
// whether the run was one on which they alone give the decode lane-steps
// (nothing preempted, nothing cancelled before its first token).
func runGenerated(t *testing.T, s genSchedule, cfg Config, topK int, tight bool) (Stats, bool) {
	defer func() {
		if t.Failed() {
			t.Logf("schedule:\n%v", s)
		}
	}()
	var all [][]int
	longest, maxNew := 0, 0
	for _, wave := range s.waves {
		for _, r := range wave {
			all = append(all, r.prompt)
			longest = max(longest, len(r.prompt)+r.maxNew)
			maxNew = max(maxNew, r.maxNew)
		}
	}
	// Greedy decode does not depend on the cap, so one reference run at the
	// largest cap serves every request as a prefix.
	var want [][]int
	if cfg.KVQuantBits == 0 && topK == 0 {
		want = sequentialReference(t, all, maxNew)
	} else {
		want = sparseReference(t, all, maxNew, topK, cfg.PageTokens, cfg.KVQuantBits)
	}

	m := model.New(model.Tiny(), seed)
	m.SetSparseTopK(topK)
	cfg.SharedPrefix = s.prefix
	if tight {
		// The smallest budget every request can run alone under, plus one
		// page: concurrency then forces eviction and preemption.
		need := kvcache.PagesFor(len(s.prefix), cfg.PageTokens) + kvcache.PagesFor(longest, cfg.PageTokens) + 1
		for cfg.KVPages = 1; kvcache.ScaledPageBudget(cfg.KVPages, m.CacheShape(), cfg.PageTokens, cfg.KVQuantBits) < need; cfg.KVPages++ {
		}
	}
	var e *Engine
	var hookErr error
	var hookMu sync.Mutex
	record := func(where string, err error) {
		hookMu.Lock()
		defer hookMu.Unlock()
		if err != nil && hookErr == nil {
			hookErr = fmt.Errorf("%s: %w", where, err)
		}
	}
	audit := stepAudit{prev: map[*reqState]auditSnap{}, lanes: map[int]int{}}
	cfg.StepHook = func(step int) {
		record(fmt.Sprintf("before step %d", step), checkLedger(e))
		audit.before(e, step)
	}
	cfg.Migrate = func(_ int, req Request, generated int) bool {
		record(fmt.Sprintf("preempting request %d", req.ID), checkVictimLedger(e, req, generated))
		return false
	}
	e, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	id := 0
	received := make([]int, len(all)) // tokens each reader was sent, by request ID
	for _, wave := range s.waves {
		var wg sync.WaitGroup
		for _, r := range wave {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch, err := e.Submit(ctx, Request{ID: id, Prompt: r.prompt, MaxNew: r.maxNew, Arrival: -1})
			if err != nil {
				t.Fatalf("submit %d: %v", id, err)
			}
			if r.cancelAfter == 0 {
				cancel()
			}
			wg.Add(1)
			go func(id int, r genReq) {
				defer wg.Done()
				var got []int
				for tok := range ch {
					got = append(got, tok.ID)
					if len(got) == r.cancelAfter {
						cancel()
					}
				}
				received[id] = len(got)
				if len(got) > r.maxNew || (r.cancelAfter < 0 && len(got) != r.maxNew) {
					t.Errorf("request %d: %d tokens, cap %d, cancelAfter %d", id, len(got), r.maxNew, r.cancelAfter)
					return
				}
				for j := range got {
					if got[j] != want[id][j] {
						t.Errorf("request %d token %d: %d != sequential %d", id, j, got[j], want[id][j])
						return
					}
				}
			}(id, r)
			id++
		}
		wg.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drained: nothing is referenced but the pre-warm, and the cache is
	// within its bound. The loop may still be finishing its iteration, so
	// this much is read through the locked accessors; Close changes nothing
	// on a drained engine and waits for the loop, after which the same state
	// is checked from the inside.
	st := e.Stats()
	if v := e.View(); v.UsedPages != e.prewarmPages {
		t.Errorf("after Drain: UsedPages = %d, want the pre-warm's %d", v.UsedPages, e.prewarmPages)
	}
	if e.pageBudget > 0 && (st.PeakPages > e.pageBudget || st.PrefixCachePages > e.pageBudget) {
		t.Errorf("PeakPages %d, PrefixCachePages %d, budget %d", st.PeakPages, st.PrefixCachePages, e.pageBudget)
	}
	if e.pageBudget == 0 && st.PrefixCachePages > e.prewarmPages+e.tree.idleCap {
		t.Errorf("after Drain: %d pages cached, bound %d + pre-warm %d", st.PrefixCachePages, e.tree.idleCap, e.prewarmPages)
	}
	e.Close()
	if err := checkLedger(e); err != nil {
		t.Errorf("after Drain and Close: %v", err)
	}
	if len(e.running) != 0 || e.privatePages != 0 || e.tree.pinned != e.prewarmPages || e.tree.pages != st.PrefixCachePages {
		t.Errorf("after Drain and Close: %d running, %d private pages, %d pinned (pre-warm %d), %d cached (%d when drained)",
			len(e.running), e.privatePages, e.tree.pinned, e.prewarmPages, e.tree.pages, st.PrefixCachePages)
	}
	// One cause per token, over the whole run and request by request: one
	// never preempted ran a lane-step for every token but its first, so
	// MaxNew-1 of them if it completed and none at all for MaxNew = 1.
	audit.before(e, st.Steps+1)
	if audit.err != nil {
		t.Error(audit.err)
	}
	sent, laneSteps, promptTokens, unbroken := 0, 0, 0, st.Preemptions == 0
	for _, n := range audit.lanes {
		laneSteps += n
	}
	for _, o := range e.Outcomes() {
		id := o.Req.ID
		sent += received[id]
		promptTokens += o.Req.PromptLen
		if received[id] == 0 {
			unbroken = false // cancelled at some unknown point of its prefill
		} else if o.Preemptions == 0 && audit.lanes[id] != received[id]-1 {
			t.Errorf("request %d was sent %d tokens over %d decode lane-steps", id, received[id], audit.lanes[id])
		}
	}
	if want := audit.finals + laneSteps - audit.silent; sent != want {
		t.Errorf("%d tokens sent, but %d Final chunks + %d lane-steps - %d replay steps = %d", sent, audit.finals, laneSteps, audit.silent, want)
	}
	// Where nothing was preempted or cut short before its first token, Stats
	// alone says it: what the iterations carried beyond prefill is one
	// lane-step per token sent but each request's first.
	if unbroken {
		if lanes, want := st.BudgetTokens-(promptTokens-st.PrefixTokensSaved), sent-len(all); lanes != want {
			t.Errorf("BudgetTokens %d - %d prefilled = %d lane-steps, want %d", st.BudgetTokens, promptTokens-st.PrefixTokensSaved, lanes, want)
		}
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if hookErr != nil {
		t.Error(hookErr)
	}
	return st, unbroken
}

// TestPreemptedVictimResumesFromSurvivingPrefix pins what preemption costs
// now that a victim's pages stay cached. B is preempted holding two sealed
// pages and a three-token tail; A's growth then evicts one of them, deepest
// first; re-admitted, B takes its surviving first page from the cache and
// re-prefills only what was lost — the evicted page and the tail that was
// never sealed — plus the token it had been sent but not yet fed.
func TestPreemptedVictimResumesFromSurvivingPrefix(t *testing.T) {
	a := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b := []int{11, 12, 13, 14, 15, 16, 17, 18}
	prompts := [][]int{a, b}
	// A request caches its prompt and all but the last of its tokens: A
	// grows to 17 tokens, into a fifth page; B is still short of its cap,
	// with 11 cached, when A's fourth page opens.
	maxNew := []int{10, 5}
	want := sequentialReference(t, prompts, 10)

	// Admission charges each prompt 2 pages + the first decode page: 6 in all.
	e, entered, release := gatedEngine(t, Config{MaxBatch: 2, PageTokens: 4, KVPages: 6})
	chans := make([]<-chan Token, 2)
	submit := func(i int) {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompts[i], MaxNew: maxNew[i], Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	submit(0)
	<-entered // A admitted, loop gated before its prefill step: A stays one step ahead of B
	submit(1)
	release()
	for i, ch := range chans {
		got := collect(t, ch)
		if len(got) != maxNew[i] {
			t.Fatalf("request %d: %d tokens, want %d", i, len(got), maxNew[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("request %d token %d: %d != sequential %d", i, j, got[j], want[i][j])
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	// A's fourth page preempts B (nothing to evict yet); A's fifth evicts B's
	// second page. B returns with 8 prompt + 4 generated tokens, 11 of which
	// it had cached, finds its first page (4 tokens) and prefills the other
	// 8: the 7 it lost and the one it still had to feed, whose logits decide
	// its last token — so it comes back for no decode step at all.
	if st.Preemptions != 1 || st.RecomputeTokensSaved != 4 || st.PrefixHits != 0 {
		t.Fatalf("Preemptions %d RecomputeTokensSaved %d PrefixHits %d, want 1 4 0", st.Preemptions, st.RecomputeTokensSaved, st.PrefixHits)
	}
	if extra, wantExtra := st.BudgetTokens-(len(a)+maxNew[0]-1+len(b)+maxNew[1]-1), 7; extra != wantExtra {
		t.Fatalf("%d tokens carried beyond each request's prompt + MaxNew-1, want %d: B's lost 7", extra, wantExtra)
	}
	if st.PrefixEvictions == 0 || st.PeakPages > 6 {
		t.Fatalf("PrefixEvictions %d PeakPages %d, want evictions within the 6-page budget", st.PrefixEvictions, st.PeakPages)
	}
}

// TestPrefixCacheEvictsBeforeStalling: pages the cache merely retains never
// hold a request back. Under a budget one request nearly fills, requests run
// one after another; each finds the budget full of its predecessors' pages
// and is admitted and decoded all the same, by eviction, never by preemption,
// and routers see the retained pages as free.
func TestPrefixCacheEvictsBeforeStalling(t *testing.T) {
	const maxNew = 9
	prompts := make([][]int, 4)
	for i := range prompts {
		prompts[i] = make([]int, 8)
		for j := range prompts[i] {
			prompts[i][j] = 20*i + j
		}
	}
	want := sequentialReference(t, prompts, maxNew)
	e := newTestEngine(t, Config{MaxBatch: 2, PageTokens: 4, KVPages: 6}) // one request grows to 5 pages
	for i, prompt := range prompts {
		ch, err := e.Submit(context.Background(), Request{ID: i, Prompt: prompt, MaxNew: maxNew, Arrival: -1})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		got := collect(t, ch)
		for j := range want[i] {
			if j >= len(got) || got[j] != want[i][j] {
				t.Fatalf("request %d diverged from sequential at token %d", i, j)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	if st.Preemptions != 0 || st.PrefixEvictions == 0 || st.Completed != len(prompts) {
		t.Fatalf("Preemptions %d PrefixEvictions %d Completed %d, want 0, >0, %d", st.Preemptions, st.PrefixEvictions, st.Completed, len(prompts))
	}
	if st.PrefixCachePages == 0 || st.PrefixCachePages > 6 {
		t.Fatalf("PrefixCachePages = %d, want the last requests' pages within the 6-page budget", st.PrefixCachePages)
	}
	if v := e.View(); v.UsedPages != 0 || v.FreePages() != 6 {
		t.Fatalf("drained engine reports %d used, %d free pages; cached pages must count as free", v.UsedPages, v.FreePages())
	}
}
