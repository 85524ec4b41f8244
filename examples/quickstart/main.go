// Quickstart: compress a KV cache during real generation and inspect the
// memory/accuracy trade-off — entirely through the public rethinkkv API.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
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

// run prints the example's report to w.
func run(w io.Writer) error {
	// A 200-token prompt for the tiny model (vocabulary ids).
	prompt := make([]int, 200)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % 500
	}

	fmt.Fprintln(w, "method      ratio   cache-bytes  retained  first-tokens")
	for _, method := range []string{"fp16", "kivi-4", "kivi-2", "gear-4", "h2o-512", "stream-512", "snapkv-512"} {
		p, err := rethinkkv.New(rethinkkv.WithMethod(method), rethinkkv.WithSeed(42))
		if err != nil {
			return err
		}
		out, rep, err := p.Run(prompt, 12)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-11s %5.2fx %12d %9d  %v\n",
			rep.Method, rep.CompressionRatio, rep.CacheBytes, rep.RetainedTokens, out[:4])
	}

	// Pipelines are reusable, and Generate streams token-by-token under a
	// cancellable context.
	p, err := rethinkkv.New(rethinkkv.WithMethod("stream-512"),
		rethinkkv.WithSeed(42), rethinkkv.WithMaxNewTokens(8))
	if err != nil {
		return err
	}
	stream, err := p.Generate(context.Background(), prompt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstreamed:")
	for tok := range stream {
		fmt.Fprintf(w, " %d", tok.ID)
	}
	fmt.Fprintln(w)

	// The analytical view: what the same choice costs at production scale.
	sys, err := rethinkkv.NewSystem(
		rethinkkv.WithHardware("a6000"), rethinkkv.WithModel("llama-2-7b"),
		rethinkkv.WithEngine("lmdeploy"), rethinkkv.WithMethod("stream-512"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nLLaMA-2-7B on A6000 (LMDeploy, Stream-512):\n")
	fmt.Fprintf(w, "  decode @ batch 8, KV 4096:  %.0f tok/s\n", sys.DecodeThroughput(8, 4096))
	fmt.Fprintf(w, "  prefill @ batch 1, 4096:    %.0f tok/s\n", sys.PrefillThroughput(1, 4096))
	return nil
}
