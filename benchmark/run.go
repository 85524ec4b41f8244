package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git repository.
var commit = "unknown"

// Fingerprint identifies the machine and build a result came from.
type Fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Scalar calibration loop times at the start and end of the run (see calibMs).
	CalibStartMs float64 `json:"calib_start_ms"`
	CalibEndMs   float64 `json:"calib_end_ms"`
	// SpeedMean and SpeedLowest are the host clock's readings over the timed
	// phase: 1 is the reference box undisturbed (see hostclock.go).
	SpeedMean   float64 `json:"speed_mean"`
	SpeedLowest float64 `json:"speed_lowest"`
	// StealFrac is the share of the host's CPU time, over the run, that the
	// hypervisor gave to someone else (/proc/stat). A run with more than a few
	// percent measured the neighbours.
	StealFrac float64 `json:"steal_frac"`
}

// phaseNames are the phases of a run, in order.
var phaseNames = []string{"warmup", "timed", "oracle"}

// PhaseCount is requests sent, succeeded and failed in one phase.
type PhaseCount struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

// Result is everything one run reports; -results appends it as one JSON line.
type Result struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	ListHash  string                `json:"list_hash"`
	Host      Fingerprint           `json:"host"`
	Phases    map[string]PhaseCount `json:"phases"` // warmup, timed, oracle
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   []Metric              `json:"metrics"`
	Notes     []string              `json:"notes,omitempty"`
}

// runConfig selects what one process does.
type runConfig struct {
	Workload   *Workload
	Seed       uint64
	Seconds    float64
	Trace      bool
	SetupReps  int     // engines built and warmed; setup_s is the median
	WarmReqs   int     // warm-up requests per engine, at most warmMax
	OracleN    int     // requests re-decoded on the solo engine
	MaxReqs    int     // >0 caps the timed requests (smoke)
	RateScale  float64 // open-loop arrival speed-up (smoke, sweep); 1 = as specified
	ProbeIters int     // timed calls per layer probe, traced runs only
	TraceOut   string  // Chrome trace-event file, traced runs only

	clock *hostClock // set by runWorkload
}

const (
	warmMax    = 4 // warm-up requests generated per list, spread over a block's sizes
	warmIDBase = 1_000_000
	oracleBase = 2_000_000
)

// served is one warmed engine and the clock it shares with the client.
type served struct {
	model *Model
	eng   *Engine
	t0    time.Time
	warm  PhaseCount
	tr    *tracer // traced engines only
}

// setup builds the model and the engine (which prefills any shared prefix) and
// warms it with the warm-up requests; it returns when, in ns since t0, that
// started and ended. t0 is the origin of the engine's clock and the client's.
func setup(ctx context.Context, w *Workload, warm []GenReq, trace bool, t0 time.Time) (*served, [2]int64, error) {
	start := int64(time.Since(t0))
	s := &served{model: NewModel(), t0: t0}
	cfg := w.Engine
	cfg.Epoch = s.t0
	if trace {
		s.tr = newTracer(s.t0)
		cfg.StepHook = s.tr.hook
	}
	eng, err := NewEngine(s.model, cfg)
	if err != nil {
		return nil, [2]int64{}, fmt.Errorf("engine: %w", err)
	}
	s.eng = eng
	l := &load{eng: eng, t0: s.t0, idBase: warmIDBase, clients: 4}
	res := l.run(ctx, warm)
	s.warm = countPhase(res, nil)
	return s, [2]int64{start, int64(time.Since(t0))}, nil
}

func countPhase(res *phaseResult, mismatched map[int]bool) PhaseCount {
	pc := PhaseCount{Sent: len(res.Records)}
	for _, r := range res.Records {
		if r.failed() || mismatched[r.ID] {
			pc.Failed++
		} else {
			pc.OK++
		}
	}
	return pc
}

// timedLoad is the workload's traffic against a warmed engine.
func timedLoad(s *served, rc *runConfig, seconds float64) *load {
	w := rc.Workload
	return &load{eng: s.eng, t0: s.t0, open: w.Rate > 0, clients: w.Clients, seconds: seconds, maxReqs: rc.MaxReqs}
}

// cutOpen trims an open-loop list to the arrivals due before seconds.
func cutOpen(reqs []GenReq, seconds float64) []GenReq {
	for i, q := range reqs {
		if q.Due >= seconds {
			return reqs[:i]
		}
	}
	return reqs
}

// runWorkload is one process's work: set up, run the timed phase, check the
// outputs against the oracle, and report. An untraced run reports the
// end-to-end metrics; a traced run reports the per-layer ones.
func runWorkload(ctx context.Context, rc *runConfig) (*Result, error) {
	w := rc.Workload
	if rc.RateScale <= 0 {
		rc.RateScale = 1
	}
	res := &Result{Workload: w.Name, Seed: rc.Seed, Seconds: rc.Seconds, Trace: rc.Trace, Phases: map[string]PhaseCount{}}
	res.Host = Fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
	res.Host.CalibStartMs = calibMs()
	total0, steal0 := cpuJiffies()
	rc.clock = startHostClock()
	defer rc.clock.Stop()

	timed, warm := w.Generate(rc.Seed, rc.Seconds, rc.RateScale, ModelShape().Vocab)
	warm = warm[:rc.WarmReqs]
	res.ListHash = ListHash(timed)

	var err error
	if rc.Trace {
		err = runTraced(ctx, rc, res, timed, warm)
	} else {
		err = runUntraced(ctx, rc, res, timed, warm)
	}
	if err != nil {
		return nil, err
	}
	res.Host.CalibEndMs = calibMs()
	total1, steal1 := cpuJiffies()
	res.Host.StealFrac = ratio(steal1-steal0, total1-total0)
	if rc.Trace {
		res.Metrics = append(res.Metrics,
			Metric{Name: "host.calib_ms", Value: (res.Host.CalibStartMs + res.Host.CalibEndMs) / 2, Unit: "ms"},
			Metric{Name: "host.speed_mean", Value: res.Host.SpeedMean, Unit: "ratio"},
			Metric{Name: "host.speed_lowest", Value: res.Host.SpeedLowest, Unit: "ratio"},
			Metric{Name: "host.steal_frac", Value: res.Host.StealFrac, Unit: "frac"},
			Metric{Name: "host.nproc", Value: float64(res.Host.NProc), Unit: "count"},
			Metric{Name: "host.gomaxprocs", Value: float64(res.Host.GOMAXPROCS), Unit: "count"})
	}
	for _, pc := range res.Phases {
		res.Attempted += pc.Sent
		res.Failed += pc.Failed
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// summarizeOnHostClock is summarize with every timestamp read on the host
// clock (hostclock.go); windowEnd is still given in wall-clock ns.
func summarizeOnHostClock(wp *hostWarp, w *Workload, phase *phaseResult, windowEnd int64, mismatched map[int]bool) *clientStats {
	cs := summarize(wp.phase(phase), wp.at(windowEnd), w.SLO, mismatched)
	if w.Rate > 0 {
		// An open loop's throughput is its offered load, which the schedule
		// fixes per wall-clock second whatever the host does.
		cs.WindowS = float64(windowEnd-phase.Start) / 1e9
	}
	return cs
}

func runUntraced(ctx context.Context, rc *runConfig, res *Result, timed, warm []GenReq) error {
	w := rc.Workload
	var s *served
	setups := make([][2]int64, 0, rc.SetupReps)
	for i := 0; i < rc.SetupReps; i++ {
		if s != nil {
			// Drop the previous repetition's model before building the next,
			// so the peak resident set does not depend on when the collector
			// happened to run.
			s.eng.Close()
			s = nil
			runtime.GC()
		}
		var span [2]int64
		var err error
		if s, span, err = setup(ctx, w, warm, false, rc.clock.t0); err != nil {
			return err
		}
		setups = append(setups, span)
	}
	defer s.eng.Close()

	phase := timedLoad(s, rc, rc.Seconds).run(ctx, timed)
	if err := s.eng.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	oracleStart := time.Now()
	oc, mismatched, err := oracle(ctx, s.model, w, phase, s.eng.Outcomes(), rc.Seed, rc.OracleN)
	if err != nil {
		return err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("wall-clock seconds: set-up x%d %.1f, timed phase to its last reply %.1f, oracle %.1f",
		rc.SetupReps, float64(setups[len(setups)-1][1]-setups[0][0])/1e9, float64(phase.End-phase.Start)/1e9, time.Since(oracleStart).Seconds()))
	// Every end-to-end time is read on the host clock: see hostclock.go.
	wp := rc.clock.warp()
	windowEnd := phase.Start + int64(rc.Seconds*1e9)
	raw := summarize(phase, windowEnd, w.SLO, mismatched)
	cs := summarizeOnHostClock(wp, w, phase, windowEnd, mismatched)
	setupS := make([]float64, len(setups))
	for i, span := range setups {
		setupS[i] = wp.between(span[0], span[1])
	}
	res.Phases["warmup"], res.Phases["timed"], res.Phases["oracle"] = s.warm, countPhase(phase, mismatched), oc
	res.Correct = len(mismatched) == 0
	res.Metrics = endToEnd(cs, median(setupS))
	res.Host.SpeedMean, res.Host.SpeedLowest = wp.speedOver(phase.Start, windowEnd)
	res.Notes = append(res.Notes, fmt.Sprintf("client.gen_lag_ms_max=%.3f", phase.GenLagMaxMs),
		fmt.Sprintf("wall-clock readings, before the host clock: ttft_p50_ms=%.2f e2e_p50_ms=%.2f tok_per_s=%.2f setup_s=%.3f",
			median(raw.TTFT), median(raw.E2E), ratio(float64(raw.Tokens), raw.WindowS), float64(setups[len(setups)-1][1]-setups[len(setups)-1][0])/1e9))
	return nil
}

// runTraced measures the workload twice: a reference pass with tracing off for
// the first half of the window, then the same list with the StepHook recorder
// and the View sampler on for the whole window. The gap between the two, over
// the window they share, is the tracing overhead.
func runTraced(ctx context.Context, rc *runConfig, res *Result, timed, warm []GenReq) error {
	w := rc.Workload
	half := rc.Seconds / 2
	ref, _, err := setup(ctx, w, warm, false, rc.clock.t0)
	if err != nil {
		return err
	}
	refList := timed
	if w.Rate > 0 {
		refList = cutOpen(timed, half)
	}
	refPhase := timedLoad(ref, rc, half).run(ctx, refList)
	ref.eng.Close()
	runtime.GC()

	s, _, err := setup(ctx, w, warm, true, rc.clock.t0)
	if err != nil {
		return err
	}
	tr := s.tr
	defer s.eng.Close()
	t := &tracedRun{w: w, m: s.model, tr: tr, seconds: rc.Seconds, phases: res.Phases, before: s.eng.Stats()}
	runtime.ReadMemStats(&t.mem0)
	tr.sample(s.eng.View)
	t.phase = timedLoad(s, rc, rc.Seconds).run(ctx, timed)
	err = s.eng.Drain(ctx)
	tr.stopSampling()
	runtime.ReadMemStats(&t.mem1)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	t.after = s.eng.Stats()
	for _, o := range s.eng.Outcomes() {
		if o.Req.ID < warmIDBase {
			t.outcomes = append(t.outcomes, o)
		}
	}
	oc, mismatched, err := oracle(ctx, s.model, w, t.phase, t.outcomes, rc.Seed, rc.OracleN)
	if err != nil {
		return err
	}
	// Close before touching the hook's timestamps: the loop goroutine owns them.
	s.eng.Close()
	t.recorderCost = tr.recorderCost(s.eng.View)

	windowEnd := t.phase.Start + int64(rc.Seconds*1e9)
	t.cs = summarize(t.phase, windowEnd, w.SLO, mismatched)
	res.Phases["warmup"], res.Phases["timed"], res.Phases["oracle"] = s.warm, countPhase(t.phase, mismatched), oc
	// Overhead: the traced pass against the untraced one, over the window
	// (tokens) and the requests (latency) they share, both on the host clock
	// so that the host's speed moving between the two passes is not read as
	// the recorder's cost.
	wp := rc.clock.warp()
	res.Host.SpeedMean, res.Host.SpeedLowest = wp.speedOver(t.phase.Start, windowEnd)
	halfNs := int64(half * 1e9)
	refStats := summarizeOnHostClock(wp, w, refPhase, refPhase.Start+halfNs, nil)
	head := &phaseResult{Start: t.phase.Start}
	for _, r := range t.phase.Records {
		if r.ID < refStats.Measured {
			head.Records = append(head.Records, r)
		}
	}
	tracedHalf := summarizeOnHostClock(wp, w, t.phase, t.phase.Start+halfNs, nil)
	t.overhead = 1 - ratio(ratio(float64(tracedHalf.Tokens), tracedHalf.WindowS), ratio(float64(refStats.Tokens), refStats.WindowS))
	t.e2eRatio = ratio(median(summarizeOnHostClock(wp, w, head, head.Start+halfNs, nil).E2E), median(refStats.E2E))

	metrics, mix, identityGap := layerMetrics(t)
	metrics = append(metrics, runProbes(s.model, tr, mix, rc.ProbeIters)...)
	res.Metrics = append(metrics, schedSelf(metrics))
	// The TTFT identity ties the engine's stamps to the client's: if it fails
	// the per-layer latency split cannot be trusted, so the run is not correct.
	res.Correct = len(mismatched) == 0 && identityGap <= 0.02
	res.Notes = append(res.Notes, fmt.Sprintf("ttft identity gap %.4f (limit 0.02)", identityGap))
	self := tr.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Notes = append(res.Notes, fmt.Sprintf("span self time %s = %.1f ms", n, self[n]))
	}
	if rc.TraceOut != "" {
		if err := tr.writeChrome(rc.TraceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}
