GO ?= go

.PHONY: ci fmt vet build test race-sched fuzz-smoke fleet-smoke chaos-smoke bench bench-smoke bench-suite bench-serve

ci: fmt vet build test race-sched fuzz-smoke fleet-smoke chaos-smoke bench-smoke bench-suite

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The continuous-batching scheduler, the multi-engine fleet pool over it
# (router placement, migration hook, per-flight forwarder goroutines), and
# the fused step plane underneath (sched -> core.StepMixedStatsInto ->
# model.ForwardMixedInto, whose sharded GEMMs and lane/chunk attention spawn
# goroutines at GOMAXPROCS>1, for every batch size including one) are the
# concurrency-heavy packages; run them — including the interleaved
# prefill+decode tests — under the race detector in CI. internal/quant and
# internal/kvcache ride along since quantized pages (append-time encode,
# dequantize-on-read page walk, CoW clones) sit on the same concurrent decode
# plane, and internal/attention because its page-selection pair (criticality
# scoring over the key summaries, SelectTopPages) runs inside the sharded
# decode step. internal/faults joins for the fault-injection hooks (panic
# isolation, submit storms) exercised by the failover and deadline-shedding
# tests in sched and fleet.
race-sched:
	$(GO) test -race ./internal/sched ./internal/fleet ./internal/core ./internal/model ./internal/quant ./internal/kvcache ./internal/attention ./internal/faults

# fuzz-smoke runs the native fuzz target over the prefix-of-n page clone
# (every page format, any page size and split) for ten seconds.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzClonePrefixN -fuzztime 10s ./internal/kvcache

# fleet-smoke runs a tiny end-to-end multi-engine serve through servebench:
# 2 engines, baseline router, no rate sweep or long-prompt scenario.
fleet-smoke:
	$(GO) run ./cmd/servebench -rates "" -longprompt 0 -fleet 2 -routers baseline -fleetreqs 6 -maxnew 8 > /dev/null

# chaos-smoke runs one seeded engine-failure scenario end-to-end through
# servebench: a 3-engine fleet loses 1 engine to an injected mid-decode
# panic, failover replays its in-flight requests on the survivors, and the
# run asserts-by-construction that every stream completes (completed_frac)
# and stays token-identical to the no-fault run (tokens_match_no_fault in
# the chaos_scenario JSON).
chaos-smoke:
	$(GO) run ./cmd/servebench -rates "" -longprompt 0 -chaos 3 -chaoskills 0,1 -chaosreqs 6 -chaosmaxnew 24 > /dev/null

BENCH_PKGS = . ./internal/model ./internal/attention

# ALLOC_PINS are the tests that hold the serving hot paths at 0 allocs/step:
# dequantize-on-read decode, the quantized strided kernels, sparse decode and
# its page-selection pair, and the fused pass / the one step entry from a
# batch of one with no chunks up to the budget-packed mixed step.
ALLOC_PINS = TestQuantDecodeAllocs TestQuantStridedKernelsZeroAlloc TestSparseDecodeAllocs TestSparseAttentionZeroAlloc TestForwardMixedPackedAllocFree TestStepMixedPackedAllocFree
ALLOC_PKGS = ./internal/model ./internal/attention ./internal/tensor ./internal/core

# bench-smoke compiles and single-steps every benchmark in BENCH_PKGS (the
# facade's, the model's decode/prefill cases including BenchmarkDecodeSteadyQuant
# and BenchmarkDecodeSteadySparse, and the attention reference kernels'), then
# re-runs ALLOC_PINS. `go test -run` passes silently when a name matches
# nothing, so the target checks that every pinned name actually ran and
# passed: renaming or deleting one fails here instead of unpinning the path.
bench-smoke:
	$(GO) test -run XXX -bench=. -benchtime=1x $(BENCH_PKGS)
	@pat=$$(echo $(ALLOC_PINS) | tr ' ' '|'); \
	out=$$($(GO) test -count=1 -v -run "^($$pat)\$$" $(ALLOC_PKGS) 2>&1) || { echo "$$out"; exit 1; }; \
	for t in $(ALLOC_PINS); do \
		echo "$$out" | grep -q -- "^--- PASS: $$t " || { echo "bench-smoke: pinned test $$t did not run"; exit 1; }; \
	done; \
	echo "bench-smoke: $(words $(ALLOC_PINS)) pinned 0-alloc tests ran and passed"

# bench-suite covers benchmark/, the repo's performance reference
# (BENCHMARK.json, benchmark/README.md). It is a module of its own, so the
# root's `go test ./...` does not reach it: its tests run here, then ten
# requests go through every workload, probe and the traced run. A change that
# breaks one of benchmark/adapter.go's calls into the program fails here.
bench-suite:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -smoke

# bench runs the decode hot-path and attention reference-kernel benchmarks with allocation
# reporting (compare BenchmarkDecodeSteady / BenchmarkDecodeSteadyBatched /
# BenchmarkPrefillChunked256 against BENCH_decode.json) and the serving
# benchmark (compare against BENCH_serve.json; regenerate with
# `make bench-serve`), including the long-prompt chunked-prefill scenario
# (one 512-token prompt arriving over a full decode batch; see
# long_prompt_scenario in BENCH_serve.json) and its k-prompt burst
# sub-scenario (4 simultaneous 512-token arrivals swept over per-iteration
# token budgets; see k_prompt_burst). Decode benches run at -cpu 1,4
# so both the serial fused step and the row/lane-sharded parallel step are
# exercised; servebench runs at GOMAXPROCS>1 for the same reason (on a
# single-core machine the sharded paths still execute, they just
# timeshare).
bench:
	$(GO) test -run XXX -bench=. -benchmem -cpu 1,4 $(BENCH_PKGS)
	GOMAXPROCS=4 $(GO) run ./cmd/servebench -fleet 4 -kvquant fp32,int8,int4 -sparse 8,32 -chaos 4

# bench-serve records the baseline at the machine's native GOMAXPROCS (the
# numbers in BENCH_serve.json state the setting; `make bench` additionally
# exercises the GOMAXPROCS>1 paths regardless of machine size). -fleet 4
# adds the fleet scenario: a 4-engine fleet A/B'd against one server per
# router policy on a decode-heavy page-pressure workload (fleet_scenario in
# the JSON; its own -fleetmaxnew 96 budget makes KV growth, not arrival
# order, the binding constraint). -kvquant adds the KV page precision A/B
# (kv_quant_scenario): fp32 vs int8 vs int4 pages under one byte budget,
# with SLO goodput and per-method accuracy deltas. -sparse adds the
# long-context sparse decode A/B (sparse_scenario): a 3072-token prompt
# decoded under full attention vs Quest-style topK page selection, with
# decode tok/s, attention-mass recall and task-score deltas per budget.
# -chaos 4 adds the goodput-under-failure curve (chaos_scenario): seeded
# mid-decode panics kill 0/1/2 of 4 engines, failover keeps every stream
# token-identical to the no-fault run, and relative goodput is compared
# against the surviving capacity fraction. The long-prompt scenario's
# k_prompt_burst sub-scenario (on by default) sweeps WithTokenBudget over a
# 4-prompt arrival burst: aggregate TTFT vs the single-chunk baseline.
bench-serve:
	$(GO) run ./cmd/servebench -fleet 4 -kvquant fp32,int8,int4 -sparse 8,32 -chaos 4 -out BENCH_serve.json
