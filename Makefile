# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check statcheck streamcheck chaoscheck packedcheck compresscheck incrcheck servecheck bpscheck distcheck benchcheck race race-all vet fmt bench bench-json benchdiff experiments experiments-full serve-bench serve-benchdiff scale-bench scale-benchdiff fuzz clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build vet test race statcheck streamcheck chaoscheck packedcheck compresscheck incrcheck servecheck bpscheck distcheck benchcheck

# The statistical-accuracy suite (recall / false-positive-rate bounds
# on seeded synthetic matrices; deterministic).
statcheck:
	$(GO) test ./internal/statstest

# The out-of-core suite under the race detector: streamed pipeline
# bit-identical to in-memory (differential harness), budgeted
# verification spills and still matches, streamed kernels and the shard
# fan-out agree with their serial counterparts.
streamcheck:
	$(GO) test -race -run 'TestStreamed' .
	$(GO) test -race -run 'TestExactBudgeted|TestStagedMerge|TestSpillTable|TestComputeStream|TestFanOutShards|TestScanShards|TestFileSourceBytesRead' ./internal/verify ./internal/minhash ./internal/kminhash ./internal/matrix

# The chaos-differential suite under the race detector: runs under
# injected transient IO faults bit-identical to fault-free runs,
# permanent faults fail with path+offset errors, cancelled runs stop
# promptly leaving no goroutines or spill files, and the fault injector
# plus the spill cleanup paths hold up on their own.
chaoscheck:
	$(GO) test -race -run 'TestChaos' .
	$(GO) test -race ./internal/faultfs ./internal/testutil
	$(GO) test -race -run 'TestBudgetWorkerCleanup|TestExactBudgetedCleanup|TestExactBudgetedSpillDir|TestFileSourceDecodeErrors' ./internal/verify ./internal/matrix

# The packed-kernel differential suite under the race detector: the
# word-packed popcount verifier bit-identical to the scalar kernels
# across sources, budgets, and worker counts, plus the end-to-end
# kernel loops in the streamed/chaos/statistical harnesses.
packedcheck:
	$(GO) test -race -run 'TestPacked|TestAutoPack' ./internal/verify
	$(GO) test -race -run 'TestKernelOutcomesAgree' ./internal/statstest

# The compressed-codec differential suite under the race detector:
# mining ".carows" compressed matrices bit-identical to ".arows" across
# schemes, worker counts, and memory budgets (including under injected
# transient IO faults), compressed signature/sketch files round-tripping
# exactly, and the spill codec matching raw runs byte-for-result.
compresscheck:
	$(GO) test -race -run 'TestCompressed|TestSignaturesCompressed' .
	$(GO) test -race ./internal/bitpack
	$(GO) test -race -run 'TestCompressed|TestFileSourceCompressed|TestSaveLoadFileCompressed|TestFillColumnBits|TestSpillCodecs|TestSpillRun|TestWriteCompressed|TestReadCompressed|TestSketchCodec|TestReadSketches' ./internal/matrix ./internal/verify ./internal/minhash ./internal/kminhash

# The incremental-ingestion differential suite under the race detector:
# chunked appends with mid-stream snapshot round-trips bit-identical to
# batch computes, catch-up from grown files folding only the new rows,
# sliding windows equal to batch folds over the suffix, and the
# merge/fold-state property tests in the sketch packages.
incrcheck:
	$(GO) test -race -run 'TestIncr' .
	$(GO) test -race -run 'TestMerge|TestFoldState|TestComputeStream' ./internal/minhash ./internal/kminhash
	$(GO) test -race -run 'TestDistributeShards|TestTailSource' ./internal/matrix
	$(GO) test -race -run 'TestGoldenIncremental|TestIncrCLI' ./cmd/assocfind

# The biased-pair-sampling differential suite under the race detector:
# BPS streamed == in-memory across file formats, worker counts and
# verify kernels, budgeted spill == unbudgeted, sliding windows exact —
# all bit-identical at a fixed seed — plus the sampler's property
# invariants, the recall/FP statistics, and the CLI goldens.
bpscheck:
	$(GO) test -race -run 'TestBPS' .
	$(GO) test -race ./internal/bps
	$(GO) test -race -run 'TestBPS' ./internal/statstest
	$(GO) test -race -run 'TestGoldenOutput/bps|TestGoldenOutput/stream-bps|TestParseAlgo' ./cmd/assocfind

# The distributed-executor differential suite under the race detector:
# coordinator + worker subprocesses bit-identical to the single-process
# drivers for every scheme, worker count and file format — including a
# worker killed mid-shard and restarted — plus hang detection,
# cancellation teardown, the restart budget, the wire-protocol codecs,
# and the byte-identical CLI harness behind `assocfind -dist-workers`.
distcheck:
	$(GO) test -race ./internal/dist
	$(GO) test -race -run 'TestDist' ./cmd/assocfind

# The resident-service suite under the race detector: concurrent
# clients byte-identical to direct library calls, 1000 queries held in
# flight, shutdown draining, hot refresh under load, golden HTTP
# responses, and the query planner.
servecheck:
	$(GO) test -race ./internal/serve ./cmd/assocserve

# The benchmark harness (BENCHMARK.json, bench/) is its own module, so
# `go test ./...` here does not compile it: a refactor that drops an
# internal/* entry point it calls would otherwise fail only at
# benchmark time. Vet it and run its smoke test (tiny workloads, ~5 s).
benchcheck:
	cd bench && $(GO) vet . && $(GO) test .

# Race-detect the packages with concurrent code paths (fast); race-all
# covers the whole tree.
race:
	$(GO) test -race ./internal/verify ./internal/lsh ./internal/candidate ./internal/minhash ./internal/kminhash

race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

bench:
	$(GO) test -bench=. -benchmem ./...

# Per-phase serial-vs-parallel timings as JSON (ns/op + allocs/op +
# speedup).
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_pipeline.json

# Re-time every phase and fail if any regressed >15% against the
# committed BENCH_pipeline.json. `make benchdiff UPDATE=1` accepts the
# fresh numbers as the new baseline instead.
benchdiff:
ifdef UPDATE
	$(GO) run ./cmd/benchjson -against BENCH_pipeline.json -update -out BENCH_pipeline.json
else
	$(GO) run ./cmd/benchjson -against BENCH_pipeline.json -out /dev/null
endif

# Regenerate every paper table and figure (text to stdout).
experiments:
	$(GO) run ./cmd/experiments

experiments-full:
	$(GO) run ./cmd/experiments -scale full

# Time the multi-process executor over the 10M-row Zipfian scale tier
# (1 worker vs 4) into BENCH_scale.json. On machines with fewer than 4
# cores the 4-worker row is recorded as skipped.
scale-bench:
	$(GO) run ./cmd/benchjson -scale -out BENCH_scale.json

# Re-run the scale tier and fail on >15% regression — or a 4-worker
# speedup below 2.5x where measurable — against the committed
# BENCH_scale.json. `make scale-benchdiff UPDATE=1` accepts the fresh
# numbers instead.
scale-benchdiff:
ifdef UPDATE
	$(GO) run ./cmd/benchjson -scale -against BENCH_scale.json -update -out BENCH_scale.json
else
	$(GO) run ./cmd/benchjson -scale -against BENCH_scale.json -out /dev/null
endif

# Short fuzz pass over the codecs and dataset parsers.
fuzz:
	$(GO) test ./internal/matrix -fuzz FuzzReadText -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzReadBinary -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzReadNamedTransactions -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzCArowsRoundTrip -fuzztime 10s
	$(GO) test ./internal/minhash -fuzz FuzzReadSignatures -fuzztime 10s
	$(GO) test ./internal/minhash -fuzz FuzzCompressedSignatures -fuzztime 10s
	$(GO) test ./internal/kminhash -fuzz FuzzReadSketches -fuzztime 10s
	$(GO) test ./internal/minhash -fuzz FuzzFoldStateRoundTrip -fuzztime 10s
	$(GO) test ./internal/minhash -fuzz FuzzMergeVsBatch -fuzztime 10s
	$(GO) test ./internal/kminhash -fuzz FuzzFoldStateRoundTrip -fuzztime 10s
	$(GO) test ./internal/kminhash -fuzz FuzzMergeVsBatch -fuzztime 10s
	$(GO) test . -fuzz FuzzOpenFileDataset -fuzztime 10s
	$(GO) test ./internal/faultfs -fuzz FuzzPlanRowBinary -fuzztime 10s
	$(GO) test ./internal/verify -fuzz FuzzPackedVsScalar -fuzztime 10s
	$(GO) test ./internal/verify -fuzz FuzzSpillTableVsMap -fuzztime 10s
	$(GO) test ./internal/bps -fuzz FuzzBPSSampler -fuzztime 10s
	$(GO) test ./internal/radix -fuzz FuzzRadixSort -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzHTTPQuery -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzParseExpr -fuzztime 10s

# Re-measure the serving path (1000 concurrent clients over the
# in-process handler) into BENCH_serve.json.
serve-bench:
	$(GO) run ./cmd/serveload -out BENCH_serve.json

# Re-drive the load harness and fail on regression against the
# committed BENCH_serve.json (errors, p99, QPS, leaks). `make
# serve-benchdiff UPDATE=1` accepts the fresh numbers instead.
serve-benchdiff:
ifdef UPDATE
	$(GO) run ./cmd/serveload -against BENCH_serve.json -update -out BENCH_serve.json
else
	$(GO) run ./cmd/serveload -against BENCH_serve.json -out /dev/null
endif

clean:
	rm -rf internal/matrix/testdata/fuzz internal/faultfs/testdata/fuzz internal/serve/testdata/fuzz
