GO ?= go

.PHONY: ci fmt vet build cross test arms onep race-sched fuzz-smoke bench bench-smoke bench-suite loc

# ci is the whole gate; .github/workflows/ci.yml runs exactly this target.
ci: fmt vet build cross test arms onep race-sched fuzz-smoke bench-smoke bench-suite

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet covers benchmark/ too: it is a module of its own, which the root's
# ./... does not reach.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

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

# arms runs the tests of the packages a serving step runs through — their
# stream and bit-identity tests among them, the fleet's and the facade's
# included — on the pure-Go specification: the purego build tag caps the
# kernels' arm at it (internal/tensor's armCap). internal/tensor's own tests
# cover every arm in one build.
arms:
	$(GO) test -tags purego ./internal/model ./internal/core ./internal/sched ./internal/kvcache ./internal/fleet .

# onep runs the serving plane on one P, the P count benchmark/ measures at and
# what a one-core deployment gets: engine loops, stream readers and Submit
# callers all take turns on it, so a loop that never hands the P over — or a
# test that only passes because another P ran the reader — shows here and
# nowhere else. (-count=1: the test cache does
# not key on GOMAXPROCS and would answer with `make test`'s results.)
onep:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/sched ./internal/fleet .

# race-sched runs the packages on the concurrent serving plane under the race
# detector: sched (engine loop vs Submit/Drain/View callers), fleet (the
# handoff hook moving a live request between engine loops, failover), the
# facade's fleet and real-engine replay tests over those, faults (its hooks
# are called from engine loops and Submit paths at once), and the facade's
# Pipeline, which Run, Generate and GenerateBatch share across goroutines with
# no lock (TestPipelineConcurrentCallsMatchSequential). core, model, quant and
# kvcache are what an engine loop runs; the fused step starts no goroutine of
# its own, so their tests race only independent Sessions and workspaces
# decoding at once over one shared model (TestConcurrentWorkspaces,
# DecodeSessions), and they stay to catch a goroutine put back into the step.
race-sched:
	$(GO) test -race ./internal/sched ./internal/fleet ./internal/core ./internal/model ./internal/quant ./internal/kvcache ./internal/faults
	$(GO) test -race -run TestPipelineConcurrentCallsMatchSequential .
	$(GO) test -race -run 'TestFleet|TestServeTraceRealEngine|TestServerStreamIsTheEnginesChannel|TestNoGoroutineOutlivesClose' .

# fuzz-smoke runs each native fuzz target for ten seconds: the prefix-of-n
# page clone (every page format, any page size and split), then the page pool
# (random runs of new cache / append / clone / seal / adopt / release / give
# back / reserve over one shared pool, budgeted or not, every page format,
# pages of 1–8 tokens and of 16, whose full pages seal:
# each live cache must store what a cold cache of its tokens stores, the
# pool's count of pages out must balance, and its promises must too — never
# negative, summing to the pool's count, given back by release — with an
# unpromised page open past the budget panicking), then the GEMM tile
# loop against the scalar reference (any shape and lane count, every arm the
# host has, raw float32 bits), then the attention block walk against
# Dot / AXPY (any head dimension, codec, page form — open or sealed pages —
# page size, block size and causal bounds, every arm, raw float32 bits), then
# the KV page
# seam (any shape, page size and store: one AppendFlatN per token and any
# AppendFlatN split store the same bytes, and Rows reads what Seq reads),
# then every registered compression method's cache (any shape, token count
# and prompt end, raw float32 bits: any AppendFlatN split leaves the Seq,
# Positions, Len, TotalAppended and MemoryBytes of one token per call),
# then Exp32 (raw float32 bits, any subtrahend, lengths 0-40 so every ragged
# tail is hit: the AVX2 and AVX-512 arms of exp / Softmax / SiLU against the
# pure-Go specification), then RMSNormInto (raw float32 bits of x, gain and
# eps, lengths 0-300 so every ragged 16-float tail is hit: every arm against
# the pure-Go sixteen-chain specification — ±0, subnormals, squares that
# overflow to +Inf, ±Inf and NaN among the seeds), then ApplyRoPECached (raw
# bits of x and of the sin / cos tables, every even head dimension 2-128:
# every arm against the scalar loop), then the attention block's softmax across rows (raw
# float32 bits, 1-16 rows of ascending lengths 0-300 so every ragged 16-column
# tail is hit, any scale: every arm against Scale + Softmax per row — NaN, ±Inf,
# ±0 maxima, equal maxima and all -Inf rows among the seeds), then sparse decode's page selection against a stable sort
# (any NaN-free scores, ±Inf and ties included, any budget), then FMA32, the
# step of every accumulation chain, against a math/big oracle (raw bits of
# all three operands: NaN, ±Inf, subnormals and double-rounding ties), then
# the fp16 codec (raw float32 bits must encode to the nearest binary16, ties
# to even, NaN to NaN, overflow to ±Inf), then the int8 page encoder (raw
# float32 bits, 16-48 values: the AVX-512 arm's codes and (lo, Δ) pair against
# the pure-Go specification — ties, ±0 minima and fp16 underflow included,
# non-finite and out-of-range slices on the specification's path), then the
# prefix tree against a map
# model (any run of insert / match / pin / unpin / evict: page and pin
# counts, pinned ancestors, release-order eviction, longest match), then
# admission's projected page demand against an iteration-by-iteration walk
# (any page size and chunk, running sets of decode lanes, mid-prefill
# requests, sparse replay tails, re-admitted requests and paths through
# shared and pre-warmed prefix pages, predictions absent, exact, short and
# past the cap: the peak on retirement iterations equals the walk's), then the
# weight sampler's transform (raw bits of u in (-1, 1), s in (0, 1) and the
# scale, lengths 0-40 so every ragged tail is hit: every arm of NormalsInto
# against the pure-Go specification, and the specification against
# float32(u*math.Sqrt(-2*math.Log(s)/s))*scale on amd64).
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzClonePrefixN -fuzztime 10s ./internal/kvcache
	$(GO) test -run XXX -fuzz FuzzPagePoolAliasing -fuzztime 10s ./internal/kvcache
	$(GO) test -run XXX -fuzz FuzzPackedMulMatchesScalar -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzAttendBlockMatchesScalar -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzAppendSplitInvariant -fuzztime 10s ./internal/kvcache
	$(GO) test -run XXX -fuzz FuzzMethodAppendSplit -fuzztime 10s ./internal/compress
	$(GO) test -run XXX -fuzz FuzzExp32MatchesGo -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzRMSNormMatchesSpec -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzRoPEMatchesSpec -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzSoftmaxRowsMatchesSoftmax -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzSelectTopPagesMatchesSort -fuzztime 10s ./internal/model
	$(GO) test -run XXX -fuzz FuzzFMA32 -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzEncodeFloat16Nearest -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzQuantEncodeMatchesSpec -fuzztime 10s ./internal/tensor
	$(GO) test -run XXX -fuzz FuzzPrefixTreeMatchesModel -fuzztime 10s ./internal/sched
	$(GO) test -run XXX -fuzz FuzzAdmitProjectionMatchesStepwise -fuzztime 10s ./internal/sched
	$(GO) test -run XXX -fuzz FuzzPolarMatchesMath -fuzztime 10s ./internal/tensor

BENCHPKGS = . ./internal/model ./internal/tensor ./internal/rng

# ALLOC_PINS are the tests that hold the serving hot paths at 0 allocs/step:
# dequantize-on-read decode, the attention page walk (a decode lane's block
# across its KV heads, 32-row chunk, Quest blocks with the recall probe) and its page-visit kernels under
# every arm, sparse decode and its page-selection pair, the
# GEMM tile loop's entries, the batched norm and RoPE under every arm, and the fused
# pass / the one step entry from a batch of one with no chunks up to the
# budget-packed mixed step (at one P and, counted by mallocs, at two), a
# batch decode step over every eviction method's cache past its budget (the
# walk reads each head's Seq in place, and an append reuses the row its last
# eviction freed), a KV cache's whole life on a warm page pool
# (pages, page tables and page handles drawn and given back), appends across
# a page seal (the seal's scratch is the pool's), a refused page
# reservation (admission retries one after every eviction), an admission pass
# that defers on the projected page demand of eight running requests and
# streaming a request's tokens.
ALLOC_PINS = TestQuantDecodeAllocs TestBlockWalkAllocs TestQuantStridedKernelsZeroAlloc TestSparseDecodeAllocs TestSparseAttentionZeroAlloc TestBatchedKernelsAllocFree TestForwardMixedPackedAllocFree TestStepMixedPackedAllocFree TestStepAllocFreeAtTwoPs TestEvictionDecodeAllocFree TestPagePoolCycleAllocFree TestSealAppendAllocFree TestReserveRefusalAllocFree TestAdmitProjectionAllocFree TestEmitAllocFree
ALLOC_PKGS = ./internal/model ./internal/tensor ./internal/core ./internal/kvcache ./internal/sched

# bench-smoke compiles and single-steps every benchmark in BENCHPKGS (the
# facade's, the model's decode/prefill cases including BenchmarkDecodeSteadyQuant,
# BenchmarkDecodeSteadySparse and BenchmarkDecodeBatchSizes (int8 pages at 1–8
# lanes), BenchmarkModelNew, the kernels' own: BenchmarkGEMM (a row for every tile
# height, r1–r8), BenchmarkAttendBlock with its decode-shaped dec8 rows (one
# lane's 4 KV heads × 2 queries on one page, fp32 and int8) and its sealed-page
# rows beside the open-page ones,
# BenchmarkQuantEncode, BenchmarkSoftmax with its avx512 rows and its 16-row
# block rows (rows16, n = 128 and 1024), BenchmarkSiLU, BenchmarkRMSNorm (the
# one-chain scalar row beside every arm), BenchmarkRoPE, BenchmarkNormals, and
# the sampler's uniform half, BenchmarkPolar), then re-runs
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

# bench runs every benchmark in BENCHPKGS with allocation reporting. These
# are kernel- and step-level numbers for use while working; serving
# performance is measured by benchmark/ (see bench-suite).
bench:
	$(GO) test -run XXX -bench=. -benchmem $(BENCHPKGS)

# loc prints the non-test Go lines of every package outside benchmark/, their
# total, the total test Go lines outside benchmark/, and the lines of assembly
# (.s and .h). It is informational, not part of ci: the figures a line-count
# claim is made in.
loc:
	@find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total non-test Go\n", t }'
	@find . -path ./benchmark -prune -o -name '*_test.go' -print | xargs cat | wc -l | \
		awk '{ printf "%7d total test Go\n", $$1 }'
	@find . -path ./benchmark -prune -o \( -name '*.s' -o -name '*.h' \) -print | xargs cat | wc -l | \
		awk '{ printf "%7d assembly\n", $$1 }'
