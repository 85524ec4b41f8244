package sched

import (
	"context"
	"testing"

	"rethinkkv/internal/core"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/model"
)

// fuzzBytes hands out the fuzzer's bytes as small integers, 0 once they run
// out.
type fuzzBytes []byte

// next returns a value in [0, n).
func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 || n <= 1 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// simReq is one request as stepwisePeak advances it: the pages it holds
// beyond its cached path and the cached pages it alone pins, and where its
// prefill, replay tail and output stand.
type simReq struct {
	own, cached, charge int
	lane                bool // has a session: steps every iteration
	held                bool // was mid-prefill: stays charged past retirement
	tokens              int  // in its cache
	dense, prefilled    int
	replay, generated   int
	target              int // generated count it retires at
	retired             bool
	released            int
}

// stepwisePeak advances every request one iteration at a time the way
// stepOnce does — a mid-prefill request by at most chunk prompt tokens, its
// session forming with the final chunk (or in the first iteration when
// nothing is left to prefill), a lane by one appended token that emits unless
// it re-advances a replay tail, a request retiring on the pass that emits its
// target-th token — and returns the most pages they charge together in any
// iteration. A request that was mid-prefill keeps its last charge once it
// retires (lifetime.hold).
func stepwisePeak(reqs []simReq, pageTokens, chunk int) int {
	peak := 0
	for live := true; live; {
		live = false
		sum := 0
		for i := range reqs {
			r := &reqs[i]
			if r.retired {
				sum += r.released
				continue
			}
			live = true
			switch {
			case r.lane:
				r.tokens++
				if r.replay > 0 {
					r.replay--
					if r.replay == 0 {
						r.generated++
					}
				} else {
					r.generated++
				}
			case r.prefilled == r.dense:
				r.lane = true
			default:
				r.prefilled += min(r.dense-r.prefilled, chunk)
				r.tokens = r.prefilled
				if r.prefilled == r.dense {
					r.lane = true
					if r.replay == 0 {
						r.generated++
					}
				}
			}
			d := r.own + max(r.charge, kvcache.PagesFor(r.tokens, pageTokens)-r.cached)
			sum += d
			if r.generated == r.target {
				r.retired = true
				if r.held {
					r.released = d
				}
			}
		}
		peak = max(peak, sum)
	}
	return peak
}

// FuzzAdmitProjectionMatchesStepwise checks projectedPeak — the peak found on
// retirement iterations alone, from lifetimeOf's closed form — against
// stepwisePeak's iteration-by-iteration walk of the same running set and
// candidate. The sets mix decode lanes, mid-prefill requests (some with
// nothing left to prefill), sparse replay tails mid-prefill and mid-replay,
// re-admitted requests with tokens already generated, paths through shared
// and pre-warmed prefix pages, and predictions absent, exact, short and past
// the cap; any page size and chunk.
func FuzzAdmitProjectionMatchesStepwise(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 31, 1, 2, 2, 7, 40, 9, 1, 1, 0, 3, 2, 1, 1, 5, 20, 30, 3, 0, 2, 1, 0, 2})
	f.Add([]byte{15, 3, 0, 3, 3, 9, 20, 39, 10, 0, 2, 1, 2, 4, 0, 1, 15, 47, 5, 4, 1, 3, 1, 1, 2, 11, 25, 8, 0, 1, 2, 2, 1})
	f.Add([]byte{0, 0, 2, 0, 7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		pt, chunk := 1+b.next(16), 1+b.next(40)
		e := &Engine{cfg: Config{MaxBatch: 8, PageTokens: pt, PrefillChunk: chunk}, plan: make([]lifetime, 0, 8)}
		pool := kvcache.NewPagePool(kvcache.Shape{Layers: 1 + b.next(3), KVHeads: 1, HeadDim: 2}, pt, 0, 0, false)
		warm := b.next(4)
		chain := make([]*pageNode, warm+b.next(4)) // a cached prefix, pre-warmed first
		for i := range chain {
			chain[i] = &pageNode{permanent: i < warm}
			if i < warm {
				chain[i].refs = 1
			}
		}
		type built struct {
			rs      *reqState
			path    []*pageNode
			private int // sealed pages only this request holds
		}
		var all []built
		n := b.next(8) // running requests; the last one built is the candidate
		for i := 0; i <= n; i++ {
			cand := i == n
			l, maxNew := 1+b.next(48), 1+b.next(40)
			rs := &reqState{req: Request{ID: i, Prompt: make([]int, l), MaxNew: maxNew}}
			switch b.next(4) {
			case 1:
				rs.req.Predicted = maxNew
			case 2:
				rs.req.Predicted = 1 + b.next(maxNew)
			case 3:
				rs.req.Predicted = maxNew + 1 + b.next(10)
			}
			g := b.next(maxNew)
			lane := !cand && b.next(2) == 1
			if lane && g == 0 && maxNew > 1 {
				g = 1
			}
			rs.generated = make([]int, g, maxNew)
			prompt := l + g
			replay := 0
			if b.next(2) == 1 { // a sparse engine's replay tail: tokens decode produced
				replay = b.next(min(prompt-1, 12) + 1)
			}
			dense := prompt - replay
			if lane && g == 0 && replay == 0 {
				lane = false // a one-token request never decodes
			}
			// Tokens the request's cache holds and how many of them are cached
			// pages: a path into the shared prefix, then pages of its own.
			// A mid-prefill request has prefilled up to its dense span, all of
			// it only when a replay tail follows (a Final chunk forms the
			// session at once); a lane re-advancing its tail has ρ of it left.
			var tokens int
			switch {
			case lane && replay > 0:
				rs.replay = 1 + b.next(replay)
				tokens = prompt - rs.replay
			case lane:
				tokens = prompt - 1
			default:
				top := dense
				if replay == 0 {
					top--
				}
				tokens = top - b.next(top+1)
				rs.replay = replay
			}
			limit := tokens
			if cand {
				limit = matchLimit(prompt, replay)
			}
			k := min(b.next(len(chain)+1), limit/pt)
			path := append([]*pageNode(nil), chain[:k]...)
			for _, nd := range path {
				nd.refs++
			}
			var private int
			if !cand {
				private = b.next(tokens/pt - k + 1)
				for j := 0; j < private; j++ {
					path = append(path, &pageNode{refs: 1})
				}
			}
			// Admission promised the prompt and the first decode step's token;
			// a lane has opened most of that, perhaps all.
			promised := prompt
			if g+1 < maxNew {
				promised++
			}
			if lane {
				promised = tokens + b.next(2)
			}
			all = append(all, built{rs: rs, path: path, private: private})
			if cand {
				matched := k*pt + b.next(min(pt, limit-k*pt+1))
				need := kvcache.PagesFor(promised, pt) - k
				// Every request's charge, cached path and progress is decided:
				// the candidate's lifetime reads its path's refs as admission
				// would, after pinning.
				base := b.next(20)
				used := base
				sims := make([]simReq, 0, len(all))
				for _, a := range all {
					s := simReq{cached: len(a.path), generated: len(a.rs.generated)}
					for _, nd := range a.path[:len(a.path)-a.private] {
						if !nd.permanent && nd.refs == 1 { // the shared chain, used by a alone
							s.own++
						}
					}
					s.own += a.private
					est := a.rs.req.MaxNew
					if p := a.rs.req.Predicted; p > 0 && p < est {
						est = p
					}
					s.target = max(est, s.generated+1)
					if a.rs == rs {
						s.charge, s.tokens, s.held = need, matched, true
						s.dense, s.prefilled, s.replay = dense, matched, replay
					} else {
						c := a.rs.cache
						s.charge = c.LayerPages(0) - len(a.path) + c.Promised()/c.Shape().Layers
						s.tokens, s.lane, s.held = c.TotalAppended(), a.rs.sess != nil, a.rs.sess == nil
						s.dense, s.prefilled, s.replay = len(a.rs.prompt)-a.rs.replay, a.rs.prefilled, a.rs.replay
					}
					used += s.own + s.charge
					if a.rs == rs {
						used -= s.charge // not promised yet
					}
					sims = append(sims, s)
				}
				want := base + stepwisePeak(sims, pt, chunk)
				rs.prompt, rs.prefilled = make([]int, prompt), matched // as admission sets them
				got := e.projectedPeak(used, e.lifetimeOf(rs, path, need))
				if got != want {
					t.Fatalf("projected peak %d, stepwise %d (page %d, chunk %d, %d running)", got, want, pt, chunk, len(e.running))
				}
				return
			}
			c := pool.NewCache()
			span := make([]float32, tokens*2)
			for layer := 0; layer < c.Shape().Layers; layer++ {
				c.AppendFlatN(layer, tokens, span, span)
			}
			if err := c.Reserve(promised - tokens); err != nil {
				t.Fatal(err)
			}
			rs.cache, rs.nodes = c, path
			rs.prompt, rs.prefilled = make([]int, prompt), tokens
			if lane {
				rs.sess = core.NewPrefilledStepSession(nil, c, 0)
			}
			e.running = append(e.running, rs)
		}
	})
}

// TestAdmitProjectionAllocFree pins an admission pass that defers on the
// projection at 0 allocations: eight requests decode, a queue of eight more
// waits, the head's pages fit now but not the running set's growth to
// retirement, so every pass matches the head's prompt, pins and unpins its
// path, projects nine lifetimes from the scratch New sized and leaves it
// queued.
func TestAdmitProjectionAllocFree(t *testing.T) {
	// 4-token pages: each request holds 2 now and grows to 5 (4 prompt + 16
	// output - 1 tokens). Eight fit the 42-page budget to retirement (40); a
	// ninth fits now (16 + 2) but not at the peak (45).
	e, err := newEngine(model.New(model.Tiny(), seed), Config{MaxBatch: 16, PageTokens: 4, KVPages: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := e.Submit(context.Background(), Request{ID: i, Prompt: []int{4*i + 1, 4*i + 2, 4*i + 3, 4*i + 4}, MaxNew: 16, Arrival: -1}); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	e.admitLocked()
	e.mu.Unlock()
	e.stepOnce() // every prompt prefills in one chunk: eight decode lanes
	if len(e.running) != 8 || len(e.queue) != 8 || e.stats.AdmitDeferred != 1 {
		t.Fatalf("%d running, %d queued, %d deferred: want 8, 8, 1", len(e.running), len(e.queue), e.stats.AdmitDeferred)
	}
	n := testing.AllocsPerRun(100, func() {
		e.mu.Lock()
		e.admitLocked()
		e.mu.Unlock()
	})
	if n != 0 {
		t.Fatalf("a deferred admission pass allocated %.1f times, want 0", n)
	}
	if st := e.Stats(); st.AdmitDeferred != 102 || len(e.running) != 8 {
		t.Fatalf("AdmitDeferred %d with %d running, want 102 deferred passes and 8 running", st.AdmitDeferred, len(e.running))
	}
}
