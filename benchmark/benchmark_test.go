package main

import (
	"context"
	"io"
	"math"
	"testing"
	"time"
)

// pinnedHashes are ListHash of seed 1's 20-second request list per workload
// (amd64; the log-normal quantiles go through math.Exp and math.Erfinv). If a
// change to the generator moves them, every recorded baseline is void: say so
// in the change, do not just re-pin.
var pinnedHashes = map[string]string{
	"chat_poisson":     "2a9ff9b2c08a7c72",
	"longdoc_mixed":    "48fadf60c721bbbe",
	"prefix_zipf":      "bdadb87e716e9c4b",
	"kv_pressure_int8": "6521eb1b47999658",
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	vocab := ModelShape().Vocab
	for _, w := range Workloads() {
		a, warmA := w.Generate(1, 20, 1, vocab)
		again, _ := WorkloadByName(w.Name)
		b, warmB := again.Generate(1, 20, 1, vocab)
		if ListHash(a) != ListHash(b) || ListHash(warmA) != ListHash(warmB) {
			t.Errorf("%s: same seed gave two different lists", w.Name)
		}
		if got := ListHash(a); got != pinnedHashes[w.Name] {
			t.Errorf("%s: seed 1 list hash %s, pinned %s", w.Name, got, pinnedHashes[w.Name])
		}
		other, _ := WorkloadByName(w.Name)
		c, _ := other.Generate(2, 20, 1, vocab)
		if ListHash(a) == ListHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same list", w.Name)
		}
		if len(a) < 100 {
			t.Errorf("%s: %d requests in the list, want at least 100", w.Name, len(a))
		}
	}
}

// Every block of a list carries the same multiset of sizes whatever the seed:
// that is what keeps the offered work equal from seed to seed.
func TestBlocksCarryTheSameWork(t *testing.T) {
	vocab := ModelShape().Vocab
	for _, name := range []string{"chat_poisson", "longdoc_mixed", "prefix_zipf", "kv_pressure_int8"} {
		var sums [2][2]int
		for s := 0; s < 2; s++ {
			w, _ := WorkloadByName(name)
			reqs, _ := w.Generate(uint64(s+1), 20, 1, vocab)
			for _, q := range reqs[:2*block] {
				sums[s][0] += len(q.Prompt)
				sums[s][1] += q.MaxNew
			}
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: two blocks carry %v prompt/output tokens under seed 1 and %v under seed 2", name, sums[0], sums[1])
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank: ten samples beyond it)", got)
	}
	if m := tailMetric("x", "ms", xs[:50], 90); m.Note == "" {
		t.Errorf("p90 over 50 samples was not flagged as unsupported")
	}
}

// stalledEngine answers every request at once, but its first Submit blocks the
// caller for `stall` — an engine that stops accepting work for a while.
type stalledEngine struct {
	stall time.Duration
	calls int
}

func (e *stalledEngine) Submit(_ context.Context, r Req) (<-chan Token, error) {
	if e.calls == 0 {
		time.Sleep(e.stall)
	}
	e.calls++
	ch := make(chan Token, r.MaxNew)
	for i := 0; i < r.MaxNew; i++ {
		ch <- Token{ID: i}
	}
	close(ch)
	return ch, nil
}

// An open-loop request is timed from when it was due, not from when the
// generator got round to sending it: a stall on the first request must show
// in the TTFT of the ones due while it lasted.
func TestOpenLoopLatencyIsMeasuredFromTheDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	reqs := []GenReq{
		{Prompt: []int{1}, MaxNew: 2, Due: 0},
		{Prompt: []int{1}, MaxNew: 2, Due: 0.010},
		{Prompt: []int{1}, MaxNew: 2, Due: 0.020},
	}
	l := &load{eng: &stalledEngine{stall: stall}, t0: time.Now(), open: true}
	res := l.run(context.Background(), reqs)
	if len(res.Records) != 3 {
		t.Fatalf("%d records, want 3", len(res.Records))
	}
	for i, r := range res.Records {
		if r.failed() {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
	}
	// Request 1 was due 10 ms in and answered instantly once sent, ~100 ms in.
	if got := res.Records[1].ttft(); got < 80 {
		t.Errorf("request due during the stall has TTFT %.1f ms; it waited ~90 ms past its due time", got)
	}
	if res.GenLagMaxMs < 70 {
		t.Errorf("generator lag %.1f ms, want the stall to show (~90 ms)", res.GenLagMaxMs)
	}
	if got := res.Records[0].ttft(); got < 90 {
		t.Errorf("stalled request has TTFT %.1f ms, want >= the 100 ms stall", got)
	}
}

func TestOracleCatchesACorruptedToken(t *testing.T) {
	mk := func(id int, toks ...int) *record {
		return &record{ID: id, Gen: &GenReq{MaxNew: len(toks)}, Toks: toks, At: make([]int64, len(toks))}
	}
	want := []*record{mk(0, 5, 6, 7), mk(1, 8, 9, 10), mk(2, 1, 2, 3)}
	got := []*record{mk(100, 5, 6, 7), mk(101, 8, 9, 10), mk(102, 1, 2, 3)}
	if bad := mismatches(want, got); len(bad) != 0 {
		t.Fatalf("identical streams reported as mismatched: %v", bad)
	}
	got[1].Toks[2] = 11
	if bad := mismatches(want, got); len(bad) != 1 || !bad[1] {
		t.Errorf("one corrupted token: mismatches = %v, want exactly request 1", bad)
	}
	got[2].Toks = got[2].Toks[:2] // a short oracle stream verifies nothing
	if bad := mismatches(want, got); !bad[2] {
		t.Errorf("short oracle stream not reported: %v", bad)
	}
	// A mismatch reaches the counts the run reports.
	phase := &phaseResult{Records: want}
	if pc := countPhase(phase, map[int]bool{1: true}); pc.Failed != 1 || pc.OK != 2 {
		t.Errorf("countPhase with one mismatch = %+v", pc)
	}
	if cs := summarize(phase, 1e9, SLO{TTFTms: 1e9, TBOTms: 1e9}, map[int]bool{1: true}); cs.Measured != 3 || cs.SLOMet != 2 {
		t.Errorf("summarize with one mismatch: %d measured, SLO met by %d; a wrong stream must miss the SLO", cs.Measured, cs.SLOMet)
	}
}

func TestOraclePrefersUnusualPaths(t *testing.T) {
	prefix := []int{7, 7, 7}
	phase := &phaseResult{}
	var outcomes []Outcome
	for i := 0; i < 40; i++ {
		g := &GenReq{Prompt: []int{1, 2, 3, 4}, MaxNew: 1}
		if i%10 == 0 {
			g.Prompt = []int{7, 7, 7, 9} // extends the shared prefix
		}
		phase.Records = append(phase.Records, &record{ID: i, Gen: g, Toks: []int{0}, At: []int64{0}})
		o := Outcome{}
		o.Req.ID = i
		if i == 5 {
			o.Preemptions = 2
		}
		outcomes = append(outcomes, o)
	}
	picked := pickOracle(phase, outcomes, prefix, 1, 12)
	if len(picked) != 12 {
		t.Fatalf("picked %d, want 12", len(picked))
	}
	special := 0
	for _, r := range picked {
		if r.ID%10 == 0 || r.ID == 5 {
			special++
		}
	}
	if special != 5 {
		t.Errorf("%d of the 5 preempted / prefix-hit requests were picked, want all", special)
	}
}

func TestQuartilesAndVerdicts(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005, c * 0.995} }
	lower := boundSpec{Better: "lower", Bound: 0.10}
	higher := boundSpec{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b []float64
		spec boundSpec
		want string
	}{
		{"same", tight(100), tight(104), lower, "same"},
		{"slower is worse", tight(100), tight(115), lower, "worse"},
		{"faster is better", tight(100), tight(85), lower, "better"},
		{"less throughput is worse", tight(100), tight(85), higher, "worse"},
		{"more throughput is better", tight(100), tight(115), higher, "better"},
		{"noisy sets cannot resolve the bound", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, lower, "unresolved"},
		{"noisy but disjoint", []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, lower, "worse"},
	} {
		if got := verdict(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// The host clock reads an interval as long as a host at reference speed would
// have taken: wall time while the kernel ran at its reference time counts in
// full, wall time while it took twice as long counts half.
func TestHostClockDiscountsASlowHost(t *testing.T) {
	const step = int64(50 * time.Millisecond)
	var at []int64
	var ms []float64
	for i := int64(0); i < 800; i++ { // 40 s: 20 at reference speed, 20 at half
		at = append(at, i*step)
		if i < 400 {
			ms = append(ms, hostKernelRefMs)
		} else {
			ms = append(ms, 2*hostKernelRefMs)
		}
	}
	w := newHostWarp(at, ms)
	sec := func(s float64) int64 { return int64(s * 1e9) }
	for _, c := range []struct {
		name       string
		from, to   float64
		wantRefSec float64
	}{
		{"reference speed", 5, 10, 5},
		{"half speed", 30, 35, 2.5},
		{"across the change", 10, 30, 15},
	} {
		if got := w.between(sec(c.from), sec(c.to)); math.Abs(got-c.wantRefSec) > 0.02*c.wantRefSec {
			t.Errorf("%s: %g s of wall clock read as %.3f reference s, want %g", c.name, c.to-c.from, got, c.wantRefSec)
		}
	}
	if mean, lowest := w.speedOver(sec(25), sec(35)); math.Abs(mean-0.5) > 0.01 || math.Abs(lowest-0.5) > 0.01 {
		t.Errorf("speed over the slow half = %.3f mean, %.3f lowest, want 0.5", mean, lowest)
	}
	// A phase moved onto the clock keeps its tokens and shortens its gaps.
	g := &GenReq{MaxNew: 2}
	phase := &phaseResult{Start: sec(30), End: sec(32), Records: []*record{{Gen: g, Base: sec(30), Sent: sec(30), Toks: []int{1, 2}, At: []int64{sec(31), sec(32)}, Closed: sec(32)}}}
	ref := w.phase(phase).Records[0]
	if math.Abs(ref.ttft()-500) > 10 || math.Abs(ref.e2e()-1000) > 20 || len(ref.Toks) != 2 {
		t.Errorf("on the host clock: ttft %.1f ms, e2e %.1f ms, want 500 and 1000 (half of wall clock)", ref.ttft(), ref.e2e())
	}
	if got := newHostWarp(nil, nil).at(12345); got != 12345 {
		t.Errorf("with no samples the clock must be the identity, got %d", got)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}}
	// cover = [10,50) + [90,100) = 50
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
}

// The smoke pass sends ten requests through every workload (and the traced
// path and every probe once), with the oracle on: it is what makes a change
// to the program that breaks adapter.go fail here, in `go test`. It also holds
// the output to the contract file: every run prints exactly the metrics
// BENCHMARK.json names, for the workloads it names.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range Workloads() {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s, BENCHMARK.json disagrees", i, w.Name)
		}
		for _, traced := range []bool{false, true} {
			if !smokeCovers(w.Name, traced) {
				continue
			}
			name, want := w.Name, spec.EndToEnd
			if traced {
				name, want = name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := smokeOne(context.Background(), io.Discard, w.Name, traced)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for _, m := range res.Metrics {
					got[m.Name] = m.Unit
				}
				for _, m := range want {
					if unit, ok := got[m.Name]; !ok || unit != m.Unit {
						t.Errorf("BENCHMARK.json names %s (%s); the run printed %q", m.Name, m.Unit, unit)
					}
					delete(got, m.Name)
				}
				for name := range got {
					t.Errorf("the run printed %s, which BENCHMARK.json does not name", name)
				}
			})
		}
	}
}
