package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric is one reported number. N is the sample count behind it (0 when the
// metric is not a statistic over samples).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// percentile is the nearest-rank p-th percentile (p in (0,100]) of xs; 0 when
// xs is empty. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// supportedPercentile is the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it among n — the tail a sample of that size can
// resolve. Below 20 samples not even the median qualifies and it returns 0.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		// Samples beyond the nearest-rank p-th percentile (the epsilon keeps
		// 0.9*100 from rounding up to rank 91).
		if n-int(math.Ceil(p/100*float64(n)-1e-9)) >= 10 {
			best = p
		}
	}
	return best
}

// tailMetric reports the p-th percentile of xs, noting when the sample is too
// small to support it.
func tailMetric(name, unit string, xs []float64, p float64) Metric {
	m := Metric{Name: name, Value: percentile(xs, p), Unit: unit, N: len(xs)}
	if supportedPercentile(len(xs)) < p {
		m.Note = "fewer than 10 samples beyond this percentile"
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clientStats are the client-side samples of one phase. The latency samples
// come from its whole blocks only (see measured), the throughput from every
// request.
type clientStats struct {
	Measured  int       // requests in whole blocks
	TTFT, E2E []float64 // ms, one per completed measured request
	ITL       []float64 // ms, gaps between consecutive tokens pooled over all streams
	SLOMet    int
	// Tokens counts the output tokens every request of the phase delivered
	// inside the window, which lasts WindowS seconds from the phase's start —
	// individual tokens in a fixed window, so throughput has no request-sized
	// granularity.
	Tokens  int
	WindowS float64
}

// measured returns the phase's whole blocks, in list order. Every block of a
// list carries the same multiset of request sizes, so statistics over whole
// blocks compare like with like from seed to seed and run to run; what a
// closed loop sent past its last whole block keeps the engine loaded while
// the measured requests finish, and is checked for failures but not timed.
func measured(res *phaseResult) []*record {
	recs := append([]*record(nil), res.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	if len(recs) < block {
		return recs // smoke runs: fewer requests than one block
	}
	return recs[:len(recs)/block*block]
}

// summarize folds a phase's records; windowEnd, on the records' own clock,
// closes the throughput window. mismatched marks requests the oracle found
// wrong; they count as failed and as missing the SLO.
func summarize(res *phaseResult, windowEnd int64, slo SLO, mismatched map[int]bool) *clientStats {
	cs := &clientStats{WindowS: float64(windowEnd-res.Start) / 1e9}
	for _, r := range res.Records {
		if r.failed() || mismatched[r.ID] {
			continue
		}
		for _, at := range r.At {
			if at <= windowEnd {
				cs.Tokens++
			}
		}
	}
	for _, r := range measured(res) {
		cs.Measured++
		if r.failed() || mismatched[r.ID] {
			continue
		}
		cs.TTFT = append(cs.TTFT, r.ttft())
		cs.E2E = append(cs.E2E, r.e2e())
		for i := 1; i < len(r.At); i++ {
			cs.ITL = append(cs.ITL, float64(r.At[i]-r.At[i-1])/1e6)
		}
		if r.ttft() <= slo.TTFTms && r.tbot() <= slo.TBOTms {
			cs.SLOMet++
		}
	}
	return cs
}

// endToEnd is the metric set a user of the engine would see, from the
// untraced timed phase. The names and units match BENCHMARK.json.
func endToEnd(cs *clientStats, setupS float64) []Metric {
	return []Metric{
		{Name: "setup_s", Value: setupS, Unit: "s"},
		tailMetric("ttft_p50_ms", "ms", cs.TTFT, 50),
		tailMetric("e2e_p50_ms", "ms", cs.E2E, 50),
		{Name: "tok_per_s", Value: ratio(float64(cs.Tokens), cs.WindowS), Unit: "1/s", N: cs.Tokens},
		{Name: "slo_attain_frac", Value: ratio(float64(cs.SLOMet), float64(cs.Measured)), Unit: "frac", N: cs.Measured},
		{Name: "rss_peak_mb", Value: rssPeakMB(), Unit: "MB"},
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM) from /proc; 0 when
// it cannot be read.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuJiffies reads the host's aggregate CPU line from /proc/stat: all jiffies
// and the stolen ones (time the hypervisor ran something else while this VM
// wanted the CPU). Zeroes when /proc/stat cannot be read.
func cpuJiffies() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// calibMs times a fixed scalar integer chain the benchmark owns (clock speed,
// nothing else), at the start and end of every run, so that a result carries
// what kind of machine it came from. How fast the host ran floating-point code
// during the run, which is what moves, is the host clock's job (hostclock.go).
func calibMs() float64 {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 30_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	took := time.Since(t)
	runtime.KeepAlive(x)
	return float64(took) / 1e6
}
