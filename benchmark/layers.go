package main

import (
	"math"
	"runtime"
	"sort"
)

// tracedRun is what a traced timed phase leaves behind, from which the
// per-layer metrics are derived. Nothing here is read from inside the program:
// the sources are the client's own records, Engine.Outcomes / Stats / View,
// and the StepHook timestamps.
type tracedRun struct {
	w             *Workload
	m             *Model
	tr            *tracer
	seconds       float64
	phase         *phaseResult
	cs            *clientStats
	outcomes      []Outcome // timed requests only
	before, after EngineStats
	mem0, mem1    runtime.MemStats
	phases        map[string]PhaseCount // warmup, timed, oracle
	// overhead is 1 - traced/untraced tok_per_s and e2eRatio traced/untraced
	// e2e_p50_ms, both over the requests the untraced reference pass measured.
	overhead, e2eRatio float64
	// recorderCost is the seconds the StepHook recorder and the View sampler
	// themselves took, timed directly (see tracer.recorderCost).
	recorderCost float64
}

// busySteps returns the durations (ms) of the engine iterations that lie
// wholly inside the timed phase and inside a period with at least one request
// in flight — an interval between two StepHook calls that spans an idle wait
// measures the arrival gap, not the step. It also records one span per step.
func (t *tracedRun) busySteps() []float64 {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, r := range t.phase.Records {
		edges = append(edges, edge{r.Sent, 1}, edge{r.Closed, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	// idle[i] = [from, to): no request in flight.
	var idle [][2]int64
	inflight, from := 0, t.phase.Start
	for _, e := range edges {
		if inflight == 0 && e.delta > 0 {
			idle = append(idle, [2]int64{from, e.at})
		}
		inflight += e.delta
		if inflight == 0 {
			from = e.at
		}
	}
	idle = append(idle, [2]int64{from, math.MaxInt64})

	var out []float64
	k := 0
	for i := 0; i+1 < len(t.tr.stepAt); i++ {
		a, b := t.tr.stepAt[i], t.tr.stepAt[i+1]
		if a < t.phase.Start {
			continue
		}
		for k < len(idle) && idle[k][1] <= a {
			k++
		}
		if k < len(idle) && idle[k][0] < b {
			continue // overlaps an idle period
		}
		out = append(out, float64(b-a)/1e6)
		t.tr.add("sched.step", a, b, 0, -1)
	}
	return out
}

// layerMetrics derives the client, sched, kvcache, runtime and trace metrics.
// It also returns the run's mean step composition (for the run-mix core probe)
// and the relative gap of the TTFT identity
// queue wait + prefill + stream lag = client TTFT.
func layerMetrics(t *tracedRun) ([]Metric, mixProbe, float64) {
	var out []Metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, Metric{Name: name, Value: v, Unit: unit, N: n})
	}
	cs := t.cs

	// client: the load generator's own counts and the latency it sees.
	for _, ph := range phaseNames {
		pc := t.phases[ph]
		add("client.sent."+ph, float64(pc.Sent), "count", 0)
		add("client.ok."+ph, float64(pc.OK), "count", 0)
		add("client.failed."+ph, float64(pc.Failed), "count", 0)
	}
	sent := t.phases["timed"].Sent
	add("client.gen_lag_ms_max", t.phase.GenLagMaxMs, "ms", sent)
	out = append(out, tailMetric("client.ttft_p90_ms", "ms", cs.TTFT, 90),
		tailMetric("client.itl_p50_ms", "ms", cs.ITL, 50), tailMetric("client.itl_p99_ms", "ms", cs.ITL, 99))
	add("client.slo_attain_frac", ratio(float64(cs.SLOMet), float64(cs.Measured)), "frac", cs.Measured)
	add("client.tok_per_s", float64(cs.Tokens)/t.seconds, "1/s", cs.Tokens)
	byClass := map[string][]float64{}
	byID := map[int]*record{}
	for _, r := range t.phase.Records {
		byID[r.ID] = r
		if !r.failed() {
			byClass[r.Gen.Class] = append(byClass[r.Gen.Class], r.ttft())
		}
	}
	for _, class := range []string{"long", "short", "hit", "miss"} {
		add("client.ttft_p50_ms."+class, percentile(byClass[class], 50), "ms", len(byClass[class]))
	}

	// sched: where a request's time to first token went, from the engine's
	// own stamps, and one span per request stage.
	var queue, prefill, lag, ttft, decodePerTok []float64
	promptTokens, genTokens, preempts := 0, 0, 0
	for _, o := range t.outcomes {
		r := byID[o.Req.ID]
		if r == nil || r.failed() {
			continue
		}
		promptTokens += o.Req.PromptLen
		genTokens += o.RespLen
		preempts += o.Preemptions
		queue = append(queue, (o.Start-o.Req.ArrivalTime)*1e3)
		prefill = append(prefill, (o.FirstToken-o.Start)*1e3)
		lag = append(lag, float64(r.At[0])/1e6-o.FirstToken*1e3)
		ttft = append(ttft, r.ttft())
		if o.RespLen > 1 {
			decodePerTok = append(decodePerTok, (o.Finish-o.FirstToken)*1e3/float64(o.RespLen-1))
		}
		idx := r.ID
		root := t.tr.add("request", r.Base, r.At[len(r.At)-1], 0, idx)
		t.tr.add("sched.queued", int64(o.Req.ArrivalTime*1e9), int64(o.Start*1e9), root, idx)
		t.tr.add("sched.prefill", int64(o.Start*1e9), int64(o.FirstToken*1e9), root, idx)
		t.tr.add("sched.decode", int64(o.FirstToken*1e9), int64(o.Finish*1e9), root, idx)
	}
	n := len(queue)
	add("client.stream_lag_ms_mean", mean(lag), "ms", n)
	add("client.stream_lag_ms_p50", median(lag), "ms", n)
	add("sched.queue_wait_ms_mean", mean(queue), "ms", n)
	add("sched.queue_wait_ms_p50", median(queue), "ms", n)
	out = append(out, tailMetric("sched.queue_wait_ms_p90", "ms", append([]float64(nil), queue...), 90))
	add("sched.prefill_ms_mean", mean(prefill), "ms", n)
	add("sched.prefill_ms_p50", median(prefill), "ms", n)
	add("sched.decode_ms_per_tok_p50", median(decodePerTok), "ms", len(decodePerTok))
	ttftMean := mean(ttft)
	add("client.ttft_ms_mean", ttftMean, "ms", n)
	identityGap := math.Abs(mean(queue)+mean(prefill)+mean(lag)-ttftMean) / math.Max(ttftMean, 1e-9)

	// sched: the step loop, from StepHook timestamps and the Stats counters
	// (differences over the timed phase; the two peaks are engine-lifetime).
	steps := t.busySteps()
	d := func(f func(EngineStats) int) float64 { return float64(f(t.after) - f(t.before)) }
	nSteps := d(func(s EngineStats) int { return s.Steps })
	budget := d(func(s EngineStats) int { return s.BudgetTokens })
	chunks := d(func(s EngineStats) int { return s.PrefillChunks })
	saved := d(func(s EngineStats) int { return s.PrefixTokensSaved })
	chunkTokens := budget - float64(genTokens)
	add("sched.steps", nSteps, "count", 0)
	add("sched.step_ms_mean", mean(steps), "ms", len(steps))
	add("sched.step_ms_p50", median(steps), "ms", len(steps))
	out = append(out, tailMetric("sched.step_ms_p99", "ms", steps, 99))
	add("sched.tokens_per_step", ratio(budget, nSteps), "count", int(nSteps))
	add("sched.mixed_step_frac", ratio(d(func(s EngineStats) int { return s.MixedSteps }), nSteps), "frac", int(nSteps))
	add("sched.packed_chunk_frac", ratio(d(func(s EngineStats) int { return s.PackedChunks }), chunks), "frac", int(chunks))
	add("sched.preempt_per_req", ratio(d(func(s EngineStats) int { return s.Preemptions }), float64(sent)), "count", sent)
	add("sched.prefill_preempted", d(func(s EngineStats) int { return s.PrefillPreempted }), "count", 0)
	add("sched.recompute_tok_frac", ratio(chunkTokens-(float64(promptTokens)-saved), chunkTokens), "frac", int(chunkTokens))
	add("sched.prefix_hit_frac", ratio(d(func(s EngineStats) int { return s.PrefixHits }), float64(sent)), "frac", sent)
	add("sched.prefix_tok_saved_frac", ratio(saved, float64(promptTokens)), "frac", promptTokens)
	add("sched.peak_running", float64(t.after.PeakRunning), "count", 0)

	// The 20 Hz View() sampler, inside the timed window.
	var running, queued, pages []float64
	goroutines := 0
	for _, s := range t.tr.samples {
		if s.At < t.phase.Start || s.At > t.phase.End {
			continue
		}
		running = append(running, float64(s.Running))
		queued = append(queued, float64(s.Queued))
		pages = append(pages, float64(s.Pages))
		goroutines = max(goroutines, s.Goroutines)
	}
	add("sched.running_mean", mean(running), "count", len(running))
	add("sched.queued_mean", mean(queued), "count", len(queued))

	// kvcache: the page ledger. Bytes are computed from tensor sizes.
	cfg := t.w.Engine
	add("kvcache.budget_pages", float64(t.m.ScaledPageBudget(cfg.KVPages, cfg.PageTokens, cfg.KVQuantBits)), "count", 0)
	add("kvcache.pages_peak", float64(t.after.PeakPages), "count", 0)
	add("kvcache.pages_used_mean", mean(pages), "count", len(pages))
	add("kvcache.peak_mb", float64(t.after.PeakPages)*t.m.KVPageBytes(cfg.PageTokens, cfg.KVQuantBits)/(1<<20), "MB", 0)

	// runtime: what the Go runtime did during the timed phase.
	wall := float64(t.phase.End-t.phase.Start) / 1e9
	add("runtime.gc_pause_ms_total", float64(t.mem1.PauseTotalNs-t.mem0.PauseTotalNs)/1e6, "ms", int(t.mem1.NumGC-t.mem0.NumGC))
	add("runtime.alloc_mb_per_s", ratio(float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc)/(1<<20), wall), "MB/s", 0)
	add("runtime.goroutines_peak", float64(goroutines), "count", len(running))
	add("trace.overhead_frac", t.overhead, "frac", 0)
	add("trace.e2e_p50_ratio", t.e2eRatio, "ratio", 0)
	add("trace.recorder_cost_frac", ratio(t.recorderCost, wall), "frac", len(t.tr.stepAt))

	// The mean step: decode lanes and chunk tokens per iteration, at the mean
	// context a decode lane attends over (prompt plus half its output).
	mix := mixProbe{lanes: int(math.Round(ratio(float64(genTokens), nSteps)))}
	mix.chunkTokens = int(math.Round(ratio(chunkTokens, nSteps)))
	if n > 0 {
		mix.ctx = (promptTokens + genTokens/2) / n
	}
	if mix.lanes == 0 && mix.chunkTokens == 0 {
		mix.lanes = 1
	}
	return out, mix, identityGap
}

// schedSelf estimates the scheduler's own share of an iteration: the mean
// StepHook-to-StepHook interval minus the core step probe at the run's mean
// composition. It is an estimate — the mean of a step time is not the step
// time at the mean batch — good for seeing the share move, not for its value.
func schedSelf(metrics []Metric) Metric {
	get := func(name string) float64 {
		for _, m := range metrics {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}
	return Metric{Name: "sched.self_ms_per_step", Value: get("sched.step_ms_mean") - get("core.step_ms.runmix"), Unit: "ms",
		Note: "estimate: sched.step_ms_mean - core.step_ms.runmix"}
}
