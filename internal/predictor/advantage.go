package predictor

import (
	"fmt"
	"strings"

	"rethinkkv/internal/perf"
)

// Advantage is the paper's Section 5.1 throughput-analysis tool output: for
// which (batch size, sequence length) regions a compression method
// out-throughputs the FP16 baseline, per stage. Serving systems consult it
// to decide when applying compression is worthwhile (Observation 2
// recommends it only for "requests with heavy KV cache").
type Advantage struct {
	Method  string
	Batches []int
	Lengths []int
	// Decode[i][j] / Prefill[i][j]: method speedup over FP16 at
	// (Batches[i], Lengths[j]).
	Decode  [][]float64
	Prefill [][]float64
}

// ComputeAdvantage sweeps the grid with the analytical estimators.
func ComputeAdvantage(fp16, method *perf.Estimator, methodName string, batches, lengths []int) Advantage {
	a := Advantage{Method: methodName, Batches: batches, Lengths: lengths}
	for _, b := range batches {
		var dec, pre []float64
		for _, l := range lengths {
			dec = append(dec, method.DecodeThroughput(b, l)/fp16.DecodeThroughput(b, l))
			pre = append(pre, method.PrefillThroughput(b, l)/fp16.PrefillThroughput(b, l))
		}
		a.Decode = append(a.Decode, dec)
		a.Prefill = append(a.Prefill, pre)
	}
	return a
}

// AdvantageousFraction returns the fraction of swept cells where the method
// wins, per stage.
func (a Advantage) AdvantageousFraction() (decode, prefill float64) {
	var dWin, pWin, n int
	for i := range a.Batches {
		for j := range a.Lengths {
			n++
			if a.Decode[i][j] > 1 {
				dWin++
			}
			if a.Prefill[i][j] > 1 {
				pWin++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(dWin) / float64(n), float64(pWin) / float64(n)
}

// Format renders the decode speedup grid as text.
func (a Advantage) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# decode speedup of %s vs FP16 (rows: batch, cols: KV length)\n", a.Method)
	fmt.Fprintf(&sb, "%-8s", "")
	for _, l := range a.Lengths {
		fmt.Fprintf(&sb, " %8d", l)
	}
	sb.WriteByte('\n')
	for i, b := range a.Batches {
		fmt.Fprintf(&sb, "%-8d", b)
		for j := range a.Lengths {
			fmt.Fprintf(&sb, " %7.2fx", a.Decode[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
