package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare and the tests need.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"` // no bounds
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the first set's median
}

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is what
// the gate computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return math.Abs(ratio(q3-q1, q2))
}

// verdict compares set b against set a for one metric.
//
//	worse / better: b's median moved past the bound (a share of a's median)
//	unresolved:     either set's own spread exceeds the bound, so a move of
//	                that size could not be told from noise — unless every run
//	                of one set beats every run of the other
//	same:           otherwise
func verdict(a, b []float64, spec boundSpec) string {
	if spec.Better == "higher" { // fold onto "lower is better"
		a, b = negated(a), negated(b)
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		switch {
		case slices.Min(b) > slices.Max(a):
			return "worse"
		case slices.Max(b) < slices.Min(a):
			return "better"
		}
		return "unresolved"
	}
	switch bound := spec.Bound * math.Abs(ma); {
	case mb-ma > bound:
		return "worse"
	case ma-mb > bound:
		return "better"
	}
	return "same"
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// readResults loads a -results file: untraced runs only, grouped by workload.
func readResults(path string) (map[string][]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*Result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func values(rs []*Result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		for _, m := range r.Metrics {
			if m.Name == metric {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareFiles prints, one workload per row, the verdict for every end-to-end
// metric, then the medians and spreads behind each verdict.
func compareFiles(out io.Writer, benchPath, pathA, pathB string) error {
	spec, err := readSpec(benchPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-18s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(out, " %-16s", m.Name)
	}
	fmt.Fprintln(out)
	var detail []string
	for _, w := range spec.Workloads {
		fmt.Fprintf(out, "%-18s", w.Name)
		for _, m := range spec.EndToEnd {
			va, vb := values(a[w.Name], m.Name), values(b[w.Name], m.Name)
			v := "missing"
			if len(va) > 0 && len(vb) > 0 {
				v = verdict(va, vb, m)
				_, ma, _ := quartiles(va)
				_, mb, _ := quartiles(vb)
				detail = append(detail, fmt.Sprintf("%-18s %-16s %-10s a: median %.4g spread %.3f n=%d | b: median %.4g spread %.3f n=%d | delta %+.3f bound %.2f",
					w.Name, m.Name, v, ma, spread(va), len(va), mb, spread(vb), len(vb), ratio(mb-ma, ma), m.Bound))
			}
			fmt.Fprintf(out, " %-16s", v)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
	for _, d := range detail {
		fmt.Fprintln(out, d)
	}
	failed := 0
	for _, rs := range []map[string][]*Result{a, b} {
		for _, runs := range rs {
			for _, r := range runs {
				if !r.Correct {
					failed++
				}
			}
		}
	}
	fmt.Fprintf(out, "\nruns with failures or oracle mismatches: %d\n", failed)
	return nil
}
