package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine, and how
// fast they run a fixed piece of floating-point code moves by up to 1.8x, for
// seconds or for minutes at a time, with what the neighbours do (README,
// "Repeatability"). A latency in wall-clock milliseconds therefore says as
// much about the neighbours as about the program. The host clock takes them
// out: a fixed kernel the benchmark owns is timed every 50 ms all through the
// run, the ratio of its reference time to its measured time is the host's
// speed at that moment, and every end-to-end time is measured on the clock
// that advances at that speed — milliseconds of a host running at reference
// speed. The kernel is the benchmark's own code, so a change to the program
// cannot move it.

const (
	// hostKernelRefMs is what the kernel takes on the reference box when
	// nothing else contends for the core. It only fixes the unit: on another
	// machine every reported time scales by one constant.
	hostKernelRefMs = 0.40
	hostSampleEvery = 50 * time.Millisecond
	// hostSmoothNs is the half-width of the window over which kernel times
	// are averaged: one 0.4 ms sample is noisy, and the host's speed rarely
	// changes faster than this.
	hostSmoothNs = int64(2 * time.Second)
)

// hostKernel is the timed kernel: a float32 multiply-add sweep with four
// accumulators over 128 KB, the shape of the program's pure-Go GEMV inner
// loops, so that what slows them slows it.
func hostKernel(buf []float32) float32 {
	var s0, s1, s2, s3 float32
	for rep := 0; rep < 32; rep++ {
		w := float32(rep) * 0.5
		for j := 0; j+4 <= len(buf); j += 4 {
			s0 += w * buf[j]
			s1 += w * buf[j+1]
			s2 += w * buf[j+2]
			s3 += w * buf[j+3]
		}
	}
	return s0 + s1 + s2 + s3
}

// hostClock samples the kernel from its own goroutine until stopped. With
// GOMAXPROCS 1 (see main) that goroutine shares the engine's one P, so the
// kernel runs on the vCPU the engine runs on, between two of its steps.
type hostClock struct {
	t0 time.Time // origin of every timestamp of the run

	mu sync.Mutex
	at []int64   // ns since t0 at which each sample started
	ms []float64 // what the kernel took

	stop, done chan struct{}
	sink       float32
}

func startHostClock() *hostClock {
	h := &hostClock{t0: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	buf := make([]float32, 32<<10)
	for i := range buf {
		buf[i] = float32(i%13) * 0.25
	}
	h.sink = hostKernel(buf) // untimed: the first call pays for the page faults
	go func() {
		defer close(h.done)
		tick := time.NewTicker(hostSampleEvery)
		defer tick.Stop()
		for {
			start := time.Now()
			h.sink = hostKernel(buf)
			took := time.Since(start)
			h.mu.Lock()
			h.at = append(h.at, int64(start.Sub(h.t0)))
			h.ms = append(h.ms, float64(took)/1e6)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampling and waits for the goroutine.
func (h *hostClock) Stop() {
	close(h.stop)
	<-h.done
}

// hostWarp maps wall-clock timestamps (ns since t0) onto the reference-speed
// clock, from the samples taken so far.
type hostWarp struct {
	edge  []int64   // edge[i]: where sample i's speed starts to apply
	ref   []float64 // reference ns elapsed at edge[i]
	speed []float64 // reference ns per wall ns from edge[i] on
}

// warp builds the mapping from the samples so far. Sample i's speed is the
// reference kernel time over the mean kernel time within hostSmoothNs of it,
// and applies from the midpoint to the previous sample to the midpoint to the
// next. With no samples the mapping is the identity.
func (h *hostClock) warp() *hostWarp {
	h.mu.Lock()
	at, ms := append([]int64(nil), h.at...), append([]float64(nil), h.ms...)
	h.mu.Unlock()
	return newHostWarp(at, ms)
}

func newHostWarp(at []int64, ms []float64) *hostWarp {
	n := len(at)
	w := &hostWarp{edge: make([]int64, n), ref: make([]float64, n), speed: make([]float64, n)}
	lo, hi, sum := 0, 0, 0.0 // ms[lo:hi] is the window around sample i
	for i := range at {
		for hi < n && at[hi] <= at[i]+hostSmoothNs {
			sum += ms[hi]
			hi++
		}
		for at[lo] < at[i]-hostSmoothNs {
			sum -= ms[lo]
			lo++
		}
		w.speed[i] = hostKernelRefMs / (sum / float64(hi-lo))
		if i > 0 {
			w.edge[i] = (at[i-1] + at[i]) / 2
			w.ref[i] = w.ref[i-1] + float64(w.edge[i]-w.edge[i-1])*w.speed[i-1]
		}
	}
	return w
}

// at returns the reference-clock reading, in ns, for wall-clock time t.
func (w *hostWarp) at(t int64) int64 {
	if len(w.edge) == 0 {
		return t
	}
	i := max(sort.Search(len(w.edge), func(i int) bool { return w.edge[i] > t })-1, 0)
	return int64(w.ref[i] + float64(t-w.edge[i])*w.speed[i])
}

// between returns the reference seconds between wall-clock times a and b.
func (w *hostWarp) between(a, b int64) float64 { return float64(w.at(b)-w.at(a)) / 1e9 }

// speedOver returns the host's mean and lowest (smoothed) speed between
// wall-clock times a and b: 1 is the reference box undisturbed.
func (w *hostWarp) speedOver(a, b int64) (mean, lowest float64) {
	if b <= a || len(w.edge) == 0 {
		return 1, 1
	}
	lowest = math.Inf(1)
	for i, e := range w.edge {
		// Sample i's speed applies over [edge[i], edge[i+1]).
		if e < b && (i+1 == len(w.edge) || w.edge[i+1] > a) {
			lowest = min(lowest, w.speed[i])
		}
	}
	return w.between(a, b) / (float64(b-a) / 1e9), lowest
}

// phase returns a copy of res with every timestamp moved onto the reference
// clock. The records' requests and tokens are shared with the original.
func (w *hostWarp) phase(res *phaseResult) *phaseResult {
	out := &phaseResult{Start: w.at(res.Start), End: w.at(res.End), GenLagMaxMs: res.GenLagMaxMs}
	for _, r := range res.Records {
		c := *r
		c.Base, c.Sent, c.Closed = w.at(r.Base), w.at(r.Sent), w.at(r.Closed)
		c.At = make([]int64, len(r.At))
		for i, t := range r.At {
			c.At[i] = w.at(t)
		}
		out.Records = append(out.Records, &c)
	}
	return out
}
