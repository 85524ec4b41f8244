package faults

import (
	"errors"
	"testing"
	"time"

	"rethinkkv/internal/kvcache"
)

// TestStepHookPanicsOnceAtScheduledStep: the scheduled crash fires at
// exactly the configured iteration, exactly once, and only for its engine.
func TestStepHookPanicsOnceAtScheduledStep(t *testing.T) {
	in := New()
	in.PanicAt(2, 3)
	hook := in.StepHook(2)
	hook(1)
	hook(2)
	if in.Fired(2) {
		t.Fatal("panic fired before its scheduled iteration")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic at the scheduled iteration")
			}
		}()
		hook(3)
	}()
	if !in.Fired(2) {
		t.Fatal("Fired not recorded after the panic")
	}
	hook(4) // must not panic a second time
	if got := in.Steps(2); got != 4 {
		t.Fatalf("Steps = %d, want 4", got)
	}
	in.StepHook(0)(7)
	if in.Fired(0) {
		t.Fatal("engine 0 fired a panic scheduled for engine 2")
	}
}

// TestSubmitStormBouncesExactlyN: a storm of n rejects exactly the next n
// Submits with ErrOutOfPages, then clears; other engines are untouched.
func TestSubmitStormBouncesExactlyN(t *testing.T) {
	in := New()
	in.SubmitStorm(1, 2)
	hook := in.SubmitHook(1)
	for i := 0; i < 2; i++ {
		if err := hook(); !errors.Is(err, kvcache.ErrOutOfPages) {
			t.Fatalf("storm submit %d: err = %v, want ErrOutOfPages", i, err)
		}
	}
	if err := hook(); err != nil {
		t.Fatalf("submit after storm drained: %v", err)
	}
	if got := in.Stormed(1); got != 2 {
		t.Fatalf("Stormed = %d, want 2", got)
	}
	if err := in.SubmitHook(0)(); err != nil {
		t.Fatalf("storm leaked to another engine: %v", err)
	}
}

// TestDelayInflatesStep: the slow-replica shape really sleeps.
func TestDelayInflatesStep(t *testing.T) {
	in := New()
	in.Delay(0, 5*time.Millisecond)
	start := time.Now()
	in.StepHook(0)(1)
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("delayed step took %v, want >= 5ms", el)
	}
}
