package gpu

import (
	"math"
	"testing"
)

func TestByName(t *testing.T) {
	if h, ok := ByName("a6000"); !ok || h.Name != "a6000" {
		t.Fatal("a6000 lookup failed")
	}
	if h, ok := ByName("h800"); !ok || h.VRAM != 80<<30 {
		t.Fatalf("h800 lookup failed: %+v", h)
	}
	if _, ok := ByName("tpu"); ok {
		t.Fatal("unknown hardware should miss")
	}
}

func TestOpTimeRoofline(t *testing.T) {
	h := A6000
	// Pure memory op: time ≈ bytes / (BW × eff) + launch.
	tMem := h.OpTime(0, 768e9, 1, 1)
	if math.Abs(tMem-(1+8e-6)) > 1e-6 {
		t.Fatalf("memory-bound time = %v", tMem)
	}
	// Pure compute op.
	tC := h.OpTime(155e12, 0, 1, 1)
	if math.Abs(tC-(1+8e-6)) > 1e-6 {
		t.Fatalf("compute-bound time = %v", tC)
	}
	// Max, not sum.
	tBoth := h.OpTime(155e12, 768e9, 1, 1)
	if math.Abs(tBoth-(1+8e-6)) > 1e-6 {
		t.Fatalf("overlapped time = %v", tBoth)
	}
	// Efficiency scales time.
	if h.OpTime(0, 768e9, 0.5, 1) < 1.9 {
		t.Fatal("half efficiency should double memory time")
	}
}

func TestOpTimePanicsOnZeroEff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	A6000.OpTime(1, 1, 0, 1)
}

func TestAllReduce(t *testing.T) {
	if A6000.AllReduceTime(1e9, 1) != 0 {
		t.Fatal("TP=1 all-reduce should be free")
	}
	t2 := A6000.AllReduceTime(1e9, 2)
	t4 := A6000.AllReduceTime(1e9, 4)
	if t2 <= 0 || t4 <= t2 {
		t.Fatalf("all-reduce times: tp2=%v tp4=%v", t2, t4)
	}
}
