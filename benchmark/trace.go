package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one traced interval, in nanoseconds since the run's epoch. Spans of
// one request share Req; Parent is the ID of the span that caused this one (0
// for a root).
type span struct {
	Name       string
	Start, End int64
	ID, Parent int
	Req        int // request index, -1 for engine steps and probes
}

// viewSample is one reading of the 20 Hz sampler.
type viewSample struct {
	At                     int64
	Queued, Running, Pages int
	Goroutines             int
}

// tracer records what a traced run observes from outside the program: a
// timestamp per engine iteration (through sched.Config.StepHook), a periodic
// Engine.View() reading, and the spans built from them and from the engine's
// Outcomes once the run ends. Everything stays in memory until then.
type tracer struct {
	t0 time.Time
	// stepAt is appended only by the engine's loop goroutine and read after
	// Engine.Close has returned.
	stepAt []int64

	mu      sync.Mutex
	samples []viewSample
	spans   []span
	stop    chan struct{}
	done    chan struct{}
}

func newTracer(t0 time.Time) *tracer {
	// Sized for any run the contract allows (60 s at sub-millisecond steps
	// would be ~100k), so the hook never grows the slice mid-run.
	return &tracer{t0: t0, stepAt: make([]int64, 0, 1<<18)}
}

// hook is installed as the engine's StepHook.
func (t *tracer) hook(int) { t.stepAt = append(t.stepAt, int64(time.Since(t.t0))) }

// sample starts the 20 Hz View() sampler; stopSampling ends it and waits.
func (t *tracer) sample(view func() EngineView) {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				v := view()
				s := viewSample{At: int64(time.Since(t.t0)), Queued: v.Queued, Running: v.Running,
					Pages: v.UsedPages, Goroutines: runtime.NumGoroutine()}
				t.mu.Lock()
				t.samples = append(t.samples, s)
				t.mu.Unlock()
			}
		}
	}()
}

func (t *tracer) stopSampling() {
	close(t.stop)
	<-t.done
}

// recorderCost times what the recorder itself does — one hook call per engine
// iteration, one View() reading per sample — and returns the seconds the run
// spent on them. Call it before the engine closes and after the timed phase:
// the extra timestamps it appends lie beyond the phase and are ignored.
func (t *tracer) recorderCost(view func() EngineView) float64 {
	steps, samples := len(t.stepAt), len(t.samples)
	const n = 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.hook(0)
	}
	perHook := time.Since(start).Seconds() / n
	start = time.Now()
	for i := 0; i < n; i++ {
		view()
	}
	perView := time.Since(start).Seconds() / n
	t.stepAt = t.stepAt[:steps]
	return float64(steps)*perHook + float64(samples)*perView
}

// add records a span and returns its ID.
func (t *tracer) add(name string, start, end int64, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, ID: id, Parent: parent, Req: req})
	return id
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), s.Start
	for _, c := range children {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.End - s.Start - covered
}

// selfByName sums self time per span name, in ms.
func (t *tracer) selfByName() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(selfTime(s, kids[s.ID])) / 1e6
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): engine steps on track 0, probes on track 1, one track per request.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid := 0
		switch {
		case s.Req >= 0:
			tid = 100 + s.Req
		case s.Name != "sched.step":
			tid = 1
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid, Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
