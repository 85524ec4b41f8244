// Example continuous demonstrates the continuous-batching server: several
// requests sharing a system prompt are submitted together, stream their
// tokens as the scheduler interleaves them, and report the serving metrics
// (TTFT, E2E, preemptions, deferred admissions) the paper's production
// sections discuss.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"rethinkkv"
)

func main() {
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
		log.Fatal(err)
	}
	defer srv.Close()

	suffixes := [][]int{
		{1, 2, 3},
		{200, 201},
		{50, 60, 70, 80},
		{400},
		{7, 8, 9},
	}

	var wg sync.WaitGroup
	for i, sfx := range suffixes {
		prompt := append(append([]int(nil), system...), sfx...)
		stream, err := srv.Submit(context.Background(), rethinkkv.ServeRequest{Prompt: prompt})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int, stream <-chan rethinkkv.Token) {
			defer wg.Done()
			var toks []int
			for tok := range stream {
				toks = append(toks, tok.ID)
			}
			fmt.Printf("request %d: %v\n", id, toks)
		}(i, stream)
	}
	wg.Wait()

	if err := srv.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("\nsteps=%d admitted=%d preemptions=%d admissions deferred=%d prefix hits=%d (saved %d prefill tokens)\n",
		st.Steps, st.Admitted, st.Preemptions, st.AdmitDeferred, st.PrefixHits, st.PrefixTokensSaved)
	for _, o := range srv.Outcomes() {
		fmt.Printf("request %d: ttft=%.1fms tbot=%.2fms e2e=%.1fms\n",
			o.Req.ID, 1000*o.TTFT(), 1000*o.TBOT(), 1000*o.E2E())
	}
}
