// Package faults is the deterministic fault-injection harness for the
// serving planes: an Injector manufactures the three failure shapes
// production fleets actually see — an engine crash (a panic in the step
// loop), a transient admission-capacity storm (ErrOutOfPages on submit),
// and a slow replica (per-iteration latency inflation) — at exact,
// replayable points in an engine's execution.
//
// The injector plugs into sched.Config through three hooks (StepHook,
// SubmitHook, AdmitHook) and is shared across the engines of a fleet, each
// engine keyed by its GPU id. Every trigger is counted in the engine's own
// event stream (its Nth scheduling iteration, its Nth Submit call), not in
// wall-clock time, so a chaos scenario replays identically across runs and
// machines: the same engine dies at the same iteration, the same submit
// attempts bounce, and the recovery path the test pins — failover via
// replay, migration fallback, deadline shedding — is exercised the same
// way every time.
package faults

import (
	"sync"
	"time"

	"rethinkkv/internal/kvcache"
)

// Injector schedules deterministic faults for a set of engines. All
// methods are safe for concurrent use; the hooks it hands out are called
// from engine loops and Submit paths concurrently.
type Injector struct {
	mu sync.Mutex
	// panicAt maps gpu -> 1-based scheduling iteration at which the
	// engine's StepHook panics (once).
	panicAt map[int]int
	// storm maps gpu -> remaining Submit calls that fail with
	// kvcache.ErrOutOfPages before the engine accepts traffic again.
	storm map[int]int
	// delay maps gpu -> extra latency added to every scheduling iteration.
	delay map[int]time.Duration

	steps   map[int]int // gpu -> scheduling iterations observed
	submits map[int]int // gpu -> Submit calls observed
	fired   map[int]bool
	stormed map[int]int // gpu -> Submit calls actually bounced
}

// New returns an empty injector; with no scheduled faults it is inert.
func New() *Injector {
	return &Injector{
		panicAt: map[int]int{},
		storm:   map[int]int{},
		delay:   map[int]time.Duration{},
		steps:   map[int]int{},
		submits: map[int]int{},
		fired:   map[int]bool{},
		stormed: map[int]int{},
	}
}

// PanicAt schedules engine gpu's step loop to panic at its step-th
// scheduling iteration (1-based). The engine's recover boundary turns the
// panic into a marked failure; the fleet layer fails its requests over.
func (in *Injector) PanicAt(gpu, step int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.panicAt[gpu] = step
}

// SubmitStorm makes engine gpu's next n Submit calls fail with
// kvcache.ErrOutOfPages — the transient capacity exhaustion a migration
// target or an overloaded replica reports under real page pressure.
func (in *Injector) SubmitStorm(gpu, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.storm[gpu] = n
}

// Delay inflates engine gpu's per-iteration latency by d — the slow-replica
// shape (thermal throttling, a noisy neighbour) that stresses deadline
// shedding without killing anything.
func (in *Injector) Delay(gpu int, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.delay[gpu] = d
}

// StepHook returns the per-iteration hook for engine gpu, suitable for
// sched.Config.StepHook: it counts the engine's scheduling iterations,
// sleeps any configured delay, and panics exactly once when the engine
// reaches its scheduled crash iteration.
func (in *Injector) StepHook(gpu int) func(step int) {
	return func(step int) {
		in.mu.Lock()
		in.steps[gpu] = step
		d := in.delay[gpu]
		at, ok := in.panicAt[gpu]
		fire := ok && !in.fired[gpu] && step >= at
		if fire {
			in.fired[gpu] = true
		}
		in.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
		if fire {
			panic("faults: injected step panic")
		}
	}
}

// SubmitHook returns the admission-time hook for engine gpu, suitable for
// sched.Config.SubmitHook: while a storm is scheduled it fails each Submit
// with kvcache.ErrOutOfPages and decrements the storm budget.
func (in *Injector) SubmitHook(gpu int) func() error {
	return func() error {
		in.mu.Lock()
		defer in.mu.Unlock()
		in.submits[gpu]++
		if in.storm[gpu] > 0 {
			in.storm[gpu]--
			in.stormed[gpu]++
			return kvcache.ErrOutOfPages
		}
		return nil
	}
}

// Steps reports the scheduling iterations engine gpu has executed — test
// scaffolding for asserting a fault fired where it was scheduled.
func (in *Injector) Steps(gpu int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.steps[gpu]
}

// Fired reports whether engine gpu's scheduled panic has been delivered.
func (in *Injector) Fired(gpu int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[gpu]
}

// Stormed reports how many Submit calls engine gpu has bounced so far.
func (in *Injector) Stormed(gpu int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stormed[gpu]
}
