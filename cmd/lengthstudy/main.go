// Command lengthstudy regenerates the paper's response-length experiments:
// Table 4 (semantic score and length increase on verbose requests), Table 5
// (≥50% length-shift ratios), Figure 4 (length-difference distributions),
// and Figure 5 (end-to-end latency CDF). It drives the public rethinkkv API
// only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rethinkkv"
)

// errNothingToRun reports a command line that selects no table or figure;
// the usage text is already on stderr.
var errNothingToRun = errors.New("lengthstudy: no table or figure selected")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && err != flag.ErrHelp {
		os.Exit(2)
	}
}

// run parses args and writes the selected tables and figures to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lengthstudy", flag.ContinueOnError)
	table := fs.String("table", "", "table to run: 4, 5, 9")
	fig := fs.String("fig", "", "figure to run: 4, 5, 15, 16, all")
	n := fs.Int("n", 1000, "ShareGPT-like sample count")
	seed := fs.Uint64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ran := false
	if *table == "5" || *fig == "all" {
		fmt.Fprintln(w, rethinkkv.Table5Shift(*n, *seed).Format())
		ran = true
	}
	if *table == "4" || *fig == "all" {
		fmt.Fprintln(w, rethinkkv.Table4Verbosity(24, *seed).Format())
		ran = true
	}
	if *fig == "4" || *fig == "all" {
		fmt.Fprint(w, rethinkkv.FormatAll(rethinkkv.Fig4LengthDistribution(*n, *seed)))
		ran = true
	}
	if *fig == "5" || *fig == "all" {
		fmt.Fprintln(w, rethinkkv.Fig5E2ECDF(*n, *seed).Format())
		ran = true
	}
	if *table == "9" || *fig == "all" {
		fmt.Fprintln(w, rethinkkv.Table9MistralShift(*n, *seed).Format())
		ran = true
	}
	if *fig == "15" || *fig == "all" {
		fmt.Fprint(w, rethinkkv.FormatAll(rethinkkv.Fig15MistralLengthDistribution(*n, *seed)))
		ran = true
	}
	if *fig == "16" || *fig == "all" {
		fmt.Fprintln(w, rethinkkv.Fig16MistralE2E(*n, *seed).Format())
		ran = true
	}
	if !ran {
		fs.Usage()
		return errNothingToRun
	}
	return nil
}
