// Example continuous demonstrates the continuous-batching server: several
// requests sharing a system prompt are submitted together, stream their
// tokens as the scheduler interleaves them, and report the serving metrics
// (TTFT, E2E, preemptions, deferred admissions) the paper's production
// sections discuss.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"rethinkkv"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run serves the example's requests and prints each request's stream, in
// request-ID order, then the server's counters and each request's latencies
// to w.
func run(w io.Writer) error {
	// A shared "system prompt": the server prefills it once and serves
	// every request from a copy-on-write page clone.
	system := make([]int, 64)
	for i := range system {
		system[i] = (i*37 + 11) % 512
	}

	srv, err := rethinkkv.NewServer(
		rethinkkv.WithSeed(42),
		rethinkkv.WithMaxNewTokens(12),
		rethinkkv.WithMaxBatch(4),
		rethinkkv.WithPageTokens(16),
		rethinkkv.WithKVPages(64),      // page budget: admission waits until a request fits it to retirement
		rethinkkv.WithPrefillChunk(16), // prompts prefill 16 tokens/iteration, interleaved with decode
		rethinkkv.WithSharedPrefix(system),
	)
	if err != nil {
		return err
	}
	defer srv.Close()

	suffixes := [][]int{
		{1, 2, 3},
		{200, 201},
		{50, 60, 70, 80},
		{400},
		{7, 8, 9},
	}

	// Every stream is read as it arrives; each reader fills its own slot.
	streams := make([][]int, len(suffixes))
	var wg sync.WaitGroup
	for i, sfx := range suffixes {
		prompt := append(append([]int(nil), system...), sfx...)
		stream, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt})
		if err != nil {
			wg.Wait() // the requests already submitted run to completion
			return err
		}
		wg.Add(1)
		go func(id int, stream <-chan rethinkkv.Token) {
			defer wg.Done()
			for tok := range stream {
				streams[id] = append(streams[id], tok.ID)
			}
		}(i, stream)
	}
	wg.Wait()
	for i, toks := range streams {
		fmt.Fprintf(w, "request %d: %v\n", i, toks)
	}

	if err := srv.Drain(context.Background()); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(w, "\nsteps=%d admitted=%d preemptions=%d admissions deferred=%d prefix hits=%d (saved %d prefill tokens)\n",
		st.Steps, st.Admitted, st.Preemptions, st.AdmitDeferred, st.PrefixHits, st.PrefixTokensSaved)
	for _, o := range srv.Outcomes() {
		fmt.Fprintf(w, "request %d: ttft=%.1fms tbot=%.2fms e2e=%.1fms\n",
			o.Req.ID, 1000*o.TTFT(), 1000*o.TBOT(), 1000*o.E2E())
	}
	return nil
}
