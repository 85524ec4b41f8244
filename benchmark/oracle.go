package main

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// The oracle re-decodes a sample of the timed requests on a fresh solo engine
// (batch of one, no page budget, no shared prefix, the same KV codec) and
// requires token-identical streams. Greedy decode is deterministic and the
// program promises that batching, chunk packing, prefix reuse and
// preempt-and-recompute never change a stream; this is where that promise is
// checked on every run.

// pickOracle chooses up to n completed requests: first the ones that took an
// unusual path (preempted, or served from the shared prefix), at most two
// thirds of the sample, then others, all by the seed.
func pickOracle(phase *phaseResult, outcomes []Outcome, prefix []int, seed uint64, n int) []*record {
	preempted := map[int]bool{}
	for _, o := range outcomes {
		if o.Preemptions > 0 {
			preempted[o.Req.ID] = true
		}
	}
	var special, plain []*record
	for _, r := range phase.Records {
		switch {
		case r.failed():
		case preempted[r.ID] || (len(prefix) > 0 && len(r.Gen.Prompt) > len(prefix) && slices.Equal(r.Gen.Prompt[:len(prefix)], prefix)):
			special = append(special, r)
		default:
			plain = append(plain, r)
		}
	}
	rnd := newRNG(seed ^ 0x0c0ffee)
	rnd.shuffle(len(special), func(i, j int) { special[i], special[j] = special[j], special[i] })
	rnd.shuffle(len(plain), func(i, j int) { plain[i], plain[j] = plain[j], plain[i] })
	picked := special[:min(len(special), max(n*2/3, n-len(plain)))]
	picked = append(picked, plain[:min(len(plain), n-len(picked))]...)
	return picked[:min(len(picked), n)]
}

// mismatches returns the IDs (of want) whose stream differs from the oracle's,
// index-aligned got; an oracle stream that itself failed verifies nothing and
// counts as a mismatch.
func mismatches(want []*record, got []*record) map[int]bool {
	bad := map[int]bool{}
	for i, w := range want {
		if got[i].failed() || !slices.Equal(w.Toks, got[i].Toks) {
			bad[w.ID] = true
		}
	}
	return bad
}

// oracle runs the check and returns the oracle phase's counts and the timed
// requests it found wrong.
func oracle(ctx context.Context, m *Model, w *Workload, phase *phaseResult, outcomes []Outcome, seed uint64, n int) (PhaseCount, map[int]bool, error) {
	want := pickOracle(phase, outcomes, w.Engine.SharedPrefix, seed, n)
	if len(want) == 0 {
		return PhaseCount{}, nil, nil
	}
	cfg := w.Engine
	cfg.MaxBatch, cfg.KVPages, cfg.SharedPrefix, cfg.StepHook, cfg.Epoch = 1, 0, nil, nil, time.Now()
	solo, err := NewEngine(m, cfg)
	if err != nil {
		return PhaseCount{}, nil, fmt.Errorf("oracle engine: %w", err)
	}
	defer solo.Close()
	reqs := make([]GenReq, len(want))
	for i, r := range want {
		reqs[i] = GenReq{Prompt: r.Gen.Prompt, MaxNew: r.Gen.MaxNew}
	}
	// One client, so the records come back in the order of want.
	l := &load{eng: solo, t0: cfg.Epoch, idBase: oracleBase, clients: 1}
	res := l.run(ctx, reqs)
	return countPhase(res, nil), mismatches(want, res.Records), nil
}
