package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// submitter is what the load generator needs of an engine; the tests
// substitute a stalled fake to check that open-loop latency is measured from
// the due time.
type submitter interface {
	Submit(ctx context.Context, r Req) (<-chan Token, error)
}

// record is the client's view of one request. Times are nanoseconds since the
// shared epoch t0 (the engine's Epoch), so client stamps and the engine's
// Outcome stamps are directly comparable.
type record struct {
	ID     int
	Gen    *GenReq
	Base   int64 // what latency is measured from: due time (open loop) or submit time (closed)
	Sent   int64 // when Submit was called
	Toks   []int
	At     []int64 // client receipt time of each token
	Closed int64   // when the stream closed
	Err    error   // refused at Submit, or an error token
}

// failed reports a request that was refused, ended with an error token, or
// came back with the wrong number of tokens.
func (r *record) failed() bool { return r.Err != nil || len(r.Toks) != r.Gen.MaxNew }

func (r *record) ttft() float64 { return float64(r.At[0]-r.Base) / 1e6 }
func (r *record) e2e() float64  { return float64(r.At[len(r.At)-1]-r.Base) / 1e6 }

// tbot is the mean time between output tokens, in ms (0 for a single token).
func (r *record) tbot() float64 {
	if len(r.At) < 2 {
		return 0
	}
	return float64(r.At[len(r.At)-1]-r.At[0]) / 1e6 / float64(len(r.At)-1)
}

// load is one phase of traffic against one engine.
type load struct {
	eng    submitter
	t0     time.Time
	idBase int // request IDs are idBase+index, so phases are told apart in Outcomes
	open   bool
	// clients is the closed-loop caller count; ignored in an open loop.
	clients int
	// seconds, when positive, bounds a closed loop: no request is submitted
	// after it. An open-loop list is already cut to its duration.
	seconds float64
	// maxReqs, when positive, caps the requests sent (smoke runs).
	maxReqs int
}

// phaseResult is what one phase of traffic produced.
type phaseResult struct {
	Start   int64 // phase start, ns since t0
	End     int64 // last stream closed
	Records []*record
	// GenLagMaxMs is how late the open-loop dispatcher ran at worst.
	GenLagMaxMs float64
}

func (l *load) now() int64 { return int64(time.Since(l.t0)) }

// run sends the list and returns once every stream has closed. The open loop
// is one dispatcher (this goroutine) plus one parked reader per in-flight
// stream; the closed loop is one goroutine per client, each reading its own
// stream. Nothing else runs on the client side.
func (l *load) run(ctx context.Context, reqs []GenReq) *phaseResult {
	if l.maxReqs > 0 && len(reqs) > l.maxReqs {
		reqs = reqs[:l.maxReqs]
	}
	res := &phaseResult{Start: l.now(), Records: make([]*record, 0, len(reqs))}
	if l.open {
		l.runOpen(ctx, reqs, res)
	} else {
		l.runClosed(ctx, reqs, res)
	}
	for _, r := range res.Records {
		if r.Closed > res.End {
			res.End = r.Closed
		}
	}
	return res
}

func newRecord(id int, g *GenReq) *record {
	return &record{ID: id, Gen: g, Toks: make([]int, 0, g.MaxNew), At: make([]int64, 0, g.MaxNew)}
}

// read drains one stream, stamping each token as the client receives it.
func (l *load) read(r *record, ch <-chan Token) {
	for tok := range ch {
		if tok.Err != nil {
			r.Err = tok.Err
			continue
		}
		r.At = append(r.At, l.now())
		r.Toks = append(r.Toks, tok.ID)
	}
	r.Closed = l.now()
}

func (l *load) runOpen(ctx context.Context, reqs []GenReq, res *phaseResult) {
	var wg sync.WaitGroup
	for i := range reqs {
		g := &reqs[i]
		due := res.Start + int64(g.Due*1e9)
		if wait := due - l.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		r := newRecord(l.idBase+i, g)
		r.Base, r.Sent = due, l.now()
		if lag := float64(r.Sent-due) / 1e6; lag > res.GenLagMaxMs {
			res.GenLagMaxMs = lag
		}
		res.Records = append(res.Records, r)
		ch, err := l.eng.Submit(ctx, Req{ID: r.ID, Prompt: g.Prompt, MaxNew: g.MaxNew, Arrival: float64(due) / 1e9})
		if err != nil {
			r.Err, r.Closed = fmt.Errorf("submit: %w", err), l.now()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.read(r, ch)
		}()
	}
	wg.Wait()
}

func (l *load) runClosed(ctx context.Context, reqs []GenReq, res *phaseResult) {
	deadline := int64(math.MaxInt64)
	if l.seconds > 0 {
		deadline = res.Start + int64(l.seconds*1e9)
	}
	var next atomic.Int64
	var mu sync.Mutex // guards res.Records
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || l.now() >= deadline {
					return
				}
				g := &reqs[i]
				r := newRecord(l.idBase+i, g)
				r.Sent = l.now()
				r.Base = r.Sent
				mu.Lock()
				res.Records = append(res.Records, r)
				mu.Unlock()
				ch, err := l.eng.Submit(ctx, Req{ID: r.ID, Prompt: g.Prompt, MaxNew: g.MaxNew, Arrival: float64(r.Sent) / 1e9})
				if err != nil {
					r.Err, r.Closed = fmt.Errorf("submit: %w", err), l.now()
					continue
				}
				l.read(r, ch)
			}
		}()
	}
	wg.Wait()
}
