// Command kvbench regenerates the paper's throughput experiments:
// Figure 1 (engine comparison, method prefill/decode sweeps), Figure 2
// (LLaMA-70B on H800), Figure 3 (attention-layer time), Table 3 (tensor
// parallelism), and the appendix TP figures (8-14). It drives the public
// rethinkkv API only.
//
// Usage:
//
//	kvbench -fig 1ab          # Figure 1 (a-b)
//	kvbench -fig all          # everything
//	kvbench -table 3          # Table 3
//	kvbench -model mistral-7b # appendix model variants
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rethinkkv"
)

// errUsage reports a command line that selects nothing to run or that the
// flags reject; the usage text is already on stderr.
var errUsage = errors.New("kvbench: usage")

func main() {
	switch err := run(os.Stdout, os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args and writes the selected figures and table to w. An unknown
// model or hardware name comes back as the study's error.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("kvbench", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure to run: 1ab, 1cd, 1eh, 1il, 2, 3, 8, 9, 10, tp, all")
	table := fs.String("table", "", "table to run: 3")
	modelName := fs.String("model", "llama-2-7b", "model shape descriptor")
	hwName := fs.String("hw", "a6000", "hardware: a6000 or h800")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	study, err := rethinkkv.NewThroughputStudy(*modelName, *hwName)
	if err != nil {
		return err
	}

	batches := []int{1, 2, 4, 8, 16}
	prompts := []int{512, 1024, 2048, 4096, 6144, 8192}
	kvs := []int{512, 1024, 2048, 4096, 6144, 8192}

	ran := false
	show := func(name string, fn func()) {
		if *fig == name || *fig == "all" {
			fn()
			ran = true
		}
	}
	show("1ab", func() {
		fmt.Fprintln(w, study.EngineDecode(256, batches).Format())
		fmt.Fprintln(w, study.EngineDecode(2048, batches).Format())
	})
	show("1cd", func() {
		fmt.Fprintln(w, study.StreamSpeedup(1024, batches).Format())
		fmt.Fprintln(w, study.StreamSpeedup(2048, batches).Format())
	})
	show("1eh", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(study.PrefillSweep(batches, prompts)))
	})
	show("1il", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(study.DecodeSweep(batches, kvs)))
	})
	show("2", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(rethinkkv.Fig2H800(prompts, kvs)))
	})
	show("3", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(study.AttentionTime([]int{1024, 2048, 3072, 4096})))
	})
	show("tp", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(study.TensorParallelFigures(batches)))
	})
	show("8", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(rethinkkv.Fig8Mistral(batches, prompts[:4])))
	})
	show("9", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(rethinkkv.Fig9SnapKV(batches, kvs[:4])))
	})
	show("10", func() {
		fmt.Fprint(w, rethinkkv.FormatAll(rethinkkv.Fig10LLaMA13B(batches, prompts[:4])))
	})
	if *table == "3" || *fig == "all" {
		fmt.Fprintln(w, study.TensorParallelTable().Format())
		ran = true
	}
	if !ran {
		fs.Usage()
		return errUsage
	}
	return nil
}
