// Command benchmark is the repo's one performance benchmark: it drives a real
// internal/sched engine over small-llama with one of four traffic mixes and
// reports end-to-end latency and throughput (-trace 0) or per-layer metrics
// from a traced replay plus layer probes (-trace 1). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	// One P. The engine shards its GEMMs over GOMAXPROCS goroutines and waits
	// for the slowest, so on a shared 2-vCPU host with two Ps every step
	// measures whichever vCPU the neighbours slowed, and the load generator
	// competes with the shards for both. With one P the step loop, the load
	// generator and the host clock's sampler take turns on one vCPU, the other
	// is left to the OS, and the sampler sees the vCPU the engine sees.
	runtime.GOMAXPROCS(1)
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: chat_poisson, longdoc_mixed, prefix_zipf, kv_pressure_int8")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same request list")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay and the layer probes")
	flag.StringVar(&o.out, "out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	flag.StringVar(&o.results, "results", "", "append the full result (fingerprint, phases, metrics) as one JSON line to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -results files against the bounds in ./BENCHMARK.json: -compare a.jsonl b.jsonl")
	flag.BoolVar(&o.sweep, "sweep", false, "ungated: run an open-loop workload at four fixed rates and report the highest that meets its SLO")
	flag.StringVar(&o.kvquant, "kvquant", "", "ungated: re-run kv_pressure_int8's traffic with fp32|int8|int4 pages under the same byte budget")
	flag.BoolVar(&o.smoke, "smoke", false, "ungated: 10 requests through every workload and the probes")
	flag.Parse()
	if err := o.run(context.Background(), flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload, out, results, kvquant string
	seed                            uint64
	seconds                         float64
	trace                           int
	compare, sweep, smoke           bool
}

func (o *options) run(ctx context.Context, args []string) error {
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", args[0], args[1])
	case o.smoke:
		return runSmoke(ctx, os.Stdout)
	}
	w, err := WorkloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if o.sweep {
		return runSweep(ctx, os.Stdout, w, o.seed)
	}
	if o.kvquant != "" {
		bits, ok := map[string]int{"fp32": 0, "int8": 8, "int4": 4}[o.kvquant]
		if !ok || w.Name != "kv_pressure_int8" {
			return fmt.Errorf("-kvquant takes fp32, int8 or int4 and applies to kv_pressure_int8 only")
		}
		w.Engine.KVQuantBits = bits
	}
	res, err := runWorkload(ctx, &runConfig{Workload: w, Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1,
		SetupReps: 3, WarmReqs: 4, OracleN: 12, ProbeIters: 15, TraceOut: o.out})
	if err != nil {
		return err
	}
	if o.results != "" {
		if err := appendResult(o.results, res); err != nil {
			return err
		}
	}
	return printResult(os.Stdout, res)
}

// printResult prints every metric by name with its unit and sample count, and
// as the last line the JSON object the driver reads.
func printResult(out io.Writer, res *Result) error {
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%v list_hash=%s\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.ListHash)
	h := res.Host
	fmt.Fprintf(out, "# host nproc=%d gomaxprocs=%d go=%s commit=%s calib_ms=%.2f/%.2f steal_frac=%.4f speed_mean=%.3f speed_lowest=%.3f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.CalibStartMs, h.CalibEndMs, h.StealFrac, h.SpeedMean, h.SpeedLowest)
	for _, ph := range phaseNames {
		pc := res.Phases[ph]
		fmt.Fprintf(out, "# phase %-6s sent=%d ok=%d failed=%d\n", ph, pc.Sent, pc.OK, pc.Failed)
	}
	fmt.Fprintf(out, "# fail_frac=%.4f (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintln(out, "#", n)
	}
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	for _, m := range res.Metrics {
		line := fmt.Sprintf("%-34s %14.4f %-8s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(out, line)
		final.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	data, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

func appendResult(path string, res *Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSmoke sends ten requests through every workload with the oracle on, one
// of them traced with every probe run once: the cheapest pass that touches
// every call in adapter.go. The tests run the same pieces, so a change to the
// program that breaks the benchmark fails `go test` here before it fails the
// gate.
func runSmoke(ctx context.Context, out io.Writer) error {
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			if smokeCovers(w.Name, traced) {
				if _, err := smokeOne(ctx, out, w.Name, traced); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// smokeCovers picks the smoke runs: prefix_zipf traced (a traced run includes
// an untraced reference pass), the other three untraced.
func smokeCovers(workload string, traced bool) bool { return traced == (workload == "prefix_zipf") }

func smokeOne(ctx context.Context, out io.Writer, workload string, traced bool) (*Result, error) {
	w, err := WorkloadByName(workload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := runWorkload(ctx, &runConfig{Workload: w, Seed: 1, Seconds: 2, Trace: traced, SetupReps: 1, WarmReqs: 2,
		OracleN: 3, MaxReqs: 10, RateScale: 4, ProbeIters: 1})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s (trace=%v): incorrect: %d of %d failed, notes %v", w.Name, traced, res.Failed, res.Attempted, res.Notes)
	}
	_, err = fmt.Fprintf(out, "smoke %s trace=%v ok: %d requests, %d metrics, %.1f s\n", w.Name, traced, res.Attempted, len(res.Metrics), time.Since(start).Seconds())
	return res, err
}
