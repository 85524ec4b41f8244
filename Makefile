GO ?= go

.PHONY: ci fmt vet build cross test onep race-sched fuzz-smoke bench bench-smoke bench-suite

# ci is the whole gate; .github/workflows/ci.yml runs exactly this target.
ci: fmt vet build cross test onep race-sched fuzz-smoke bench-smoke bench-suite

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cross builds everything for arm64 and vets the two packages that have an
# assembly / !amd64 pair, so the pure-Go counterparts of the assembly kernels keep
# compiling against the same declarations (needs no network: the module has
# no dependencies).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/model

test:
	$(GO) test ./...

# onep runs the serving plane on one P, the P count benchmark/ measures at and
# what a one-core deployment gets: engine loops, stream readers, Submit
# callers and the fleet's forwarders all take turns on it, so a loop that
# never hands the P over — or a test that only passes because another P ran
# the reader — shows here and nowhere else. (-count=1: the test cache does
# not key on GOMAXPROCS and would answer with `make test`'s results.)
onep:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/sched ./internal/fleet .

# race-sched runs the packages on the concurrent serving plane under the race
# detector: sched (engine loop vs Submit/Drain/View callers), fleet
# (per-flight forwarder goroutines, migration hook, failover), core and model
# (GEMM panel shards and attention lane shards spawn goroutines inside the fused
# step at GOMAXPROCS>1; page selection runs inside those shards), quant and
# kvcache (append-time encode and CoW page clones run inside them too), faults
# (its hooks are called from engine loops and Submit paths at once).
race-sched:
	$(GO) test -race ./internal/sched ./internal/fleet ./internal/core ./internal/model ./internal/quant ./internal/kvcache ./internal/faults

# fuzz-smoke runs each native fuzz target for ten seconds: the prefix-of-n
# page clone (every page format, any page size and split), then the GEMM tile
# loop against the scalar reference (any shape and lane count, every arm the
# host has, raw float32 bits), then the attention block walk against
# Dot / AXPY (any head dimension, codec, page size, block size and causal
# bounds, every arm, raw float32 bits), then the KV page
# seam (any shape, page size and store: Append, AppendFlat and any
# AppendFlatN split store the same bytes, and Rows reads what Seq reads),
# then Exp32 (raw float32 bits, any subtrahend, lengths 0-40 so every ragged
# tail is hit: the AVX2 arm of exp / Softmax / SiLU against the pure-Go
# specification), then sparse decode's page selection against a stable sort
# (any NaN-free scores, ±Inf and ties included, any budget), then FMA32, the
# step of every accumulation chain, against a math/big oracle (raw bits of
# all three operands: NaN, ±Inf, subnormals and double-rounding ties).
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzClonePrefixN -fuzztime 10s ./internal/kvcache
	$(GO) test -run XXX -fuzz FuzzPackedMulMatchesScalar -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzAttendBlockMatchesScalar -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzAppendSplitInvariant -fuzztime 10s ./internal/kvcache
	$(GO) test -run XXX -fuzz FuzzExp32MatchesGo -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzSelectTopPagesMatchesSort -fuzztime 10s ./internal/model
	$(GO) test -run XXX -fuzz FuzzFMA32 -fuzztime 10s ./internal/tensor

BENCHPKGS = . ./internal/model ./internal/tensor

# ALLOC_PINS are the tests that hold the serving hot paths at 0 allocs/step:
# dequantize-on-read decode, the attention page walk (decode group, 32-row
# chunk, Quest blocks with the recall probe) and its page-visit kernels under
# every arm, sparse decode and its page-selection pair, the
# GEMM tile loop's entries under every arm, and the fused
# pass / the one step entry from a batch of one with no chunks up to the
# budget-packed mixed step.
ALLOC_PINS = TestQuantDecodeAllocs TestBlockWalkAllocs TestQuantStridedKernelsZeroAlloc TestSparseDecodeAllocs TestSparseAttentionZeroAlloc TestBatchedKernelsAllocFree TestForwardMixedPackedAllocFree TestStepMixedPackedAllocFree
ALLOC_PKGS = ./internal/model ./internal/tensor ./internal/core

# bench-smoke compiles and single-steps every benchmark in BENCHPKGS (the
# facade's, the model's decode/prefill cases including BenchmarkDecodeSteadyQuant
# and BenchmarkDecodeSteadySparse, and the kernels' own: BenchmarkGEMM,
# BenchmarkAttendBlock, BenchmarkSoftmax, BenchmarkSiLU), then re-runs
# ALLOC_PINS. `go test -run` passes silently when a name matches nothing, so
# the target checks that every pinned name actually ran and passed: renaming
# or deleting one fails here instead of unpinning the path.
bench-smoke:
	$(GO) test -run XXX -bench=. -benchtime=1x $(BENCHPKGS)
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

# bench runs every benchmark in BENCHPKGS with allocation reporting, at
# -cpu 1,4 so both the serial fused step and the panel/lane-sharded step run
# (on a smaller machine the sharded paths still execute, they timeshare).
# These are kernel- and step-level numbers for use while working; serving
# performance is measured by benchmark/ (see bench-suite).
bench:
	$(GO) test -run XXX -bench=. -benchmem -cpu 1,4 $(BENCHPKGS)
