// Compare: run every compression method on the same long-context QA sample
// and watch who keeps the needle — the mechanism behind the paper's
// negative-sample analysis (Section 4.4). Uses the public rethinkkv API.
//
// Run: go run ./examples/compare
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rethinkkv"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the comparison to w.
func run(w io.Writer) error {
	ev, err := rethinkkv.NewEvaluator(rethinkkv.WithSeed(7), rethinkkv.WithContSteps(12))
	if err != nil {
		return err
	}

	// Draw LongBench-like samples and pick a single-document QA task whose
	// needle sits early in the prompt — the adversarial case for
	// recency-keeping eviction.
	samples := ev.LongBenchSamples(200, 320, 3)
	var qa *rethinkkv.Sample
	for i := range samples {
		s := &samples[i]
		if s.Task == rethinkkv.SingleDocQA && s.Critical[0].End < 80 {
			qa = s
			break
		}
	}
	if qa == nil {
		qa = &samples[0]
	}
	fmt.Fprintf(w, "sample %d: %s, prompt %d tokens, needle at [%d,%d)\n\n",
		qa.ID, qa.Task, qa.PromptLen, qa.Critical[0].Start, qa.Critical[0].End)

	ref := ev.Baseline(*qa)
	fmt.Fprintln(w, "method       retention  fidelity  agreement  score")
	for _, m := range []string{"fp16", "kivi-4", "kivi-2", "gear-4", "h2o-512", "h2o-256", "stream-512", "stream-256", "snapkv-512"} {
		r, err := ev.Evaluate(ref, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %9.2f %9.3f %10.2f %6.1f\n",
			m, r.Retention, r.Fidelity, r.Agreement, r.Score)
	}
	fmt.Fprintln(w, "\nEviction methods that drop the needle collapse the QA score;")
	fmt.Fprintln(w, "quantisation keeps every token but pays in key fidelity.")
	return nil
}
