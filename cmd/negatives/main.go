// Command negatives regenerates the paper's negative-sample experiments
// (Section 4.4 and Section 5.3): Figure 6 (threshold vs negative counts),
// Figure 7 (task-type breakdown), and Table 7 (scores on the negative
// benchmark). Every number comes from running the tiny transformer for real
// under each compression method, via the public rethinkkv API.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rethinkkv"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && err != flag.ErrHelp {
		os.Exit(2)
	}
}

// run parses args, runs the study and writes the requested figures and
// table to w; the progress line goes to stderr.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("negatives", flag.ContinueOnError)
	n := fs.Int("n", 120, "LongBench-like sample count")
	promptLen := fs.Int("prompt", 256, "prompt scale in tokens")
	seed := fs.Uint64("seed", 1, "experiment seed")
	fig := fs.String("fig", "all", "figure to run: 6, 7, all")
	table := fs.String("table", "", "table to run: 7")
	family := fs.String("family", "llama", "model family seed: llama or mistral (Figures 17-18, Table 11)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "evaluating %d samples × 5 methods on the tiny model (%s family)...\n", *n, *family)
	var st *rethinkkv.NegativeStudy
	if *family == "mistral" {
		st = rethinkkv.MistralNegativeStudy(*n, *promptLen, *seed)
	} else {
		st = rethinkkv.RunNegativeStudy(*n, *promptLen, *seed)
	}

	if *fig == "6" || *fig == "all" {
		fmt.Fprint(w, rethinkkv.FormatAll(st.Fig6Thresholds()))
	}
	if *fig == "7" || *fig == "all" {
		fmt.Fprintln(w, st.Fig7TaskBreakdown().Format())
	}
	if *table == "7" || *fig == "all" {
		fmt.Fprintln(w, st.Table7NegativeBenchmark().Format())
	}
	return nil
}
