# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check fmtcheck benchcheck race-all exports vet fmt bench bench-resident bench-phase1 bench-phase2 bench-phase3 experiments experiments-full fuzz loc clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole gate: every package under the race detector (which runs
# the equivalence matrix of equivalence_test.go — every executor, format,
# worker count, kernel, budget and fault plan against one in-memory
# oracle — plus serve's goldens, the statistical tests and the
# exported-surface sweep, each an ordinary test of its package), plus
# the benchmark module's own vet and smoke test, on a gofmt-clean tree.
check: fmtcheck build vet race-all benchcheck

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The benchmark harness (BENCHMARK.json, bench/) is its own module, so
# `go test ./...` here does not compile it: a refactor that drops an
# internal/* entry point it calls would otherwise fail only at
# benchmark time. Vet it and run its smoke test (tiny workloads, ~5 s).
benchcheck:
	cd bench && $(GO) vet . && $(GO) test .

race-all:
	$(GO) test -race ./...

# The instrument of ROADMAP items H and K, run alone. H: an exported
# internal/* name needs a non-test caller in another package (bench/
# counts); there is no allowlist, and no non-test file may import the
# test-support packages internal/testutil and internal/faultfs. K: an
# exported root name needs a caller in cmd/, examples/, internal/serve,
# internal/eval, bench/ or an Example* test, or a line on
# testdata/unused_root_exports.txt, a list that only shrinks. It is an
# ordinary test of internal/testutil, so `check` already runs it through
# race-all.
exports:
	$(GO) test ./internal/testutil -run TestExportedNamesAreUsed -count=1

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

bench:
	$(GO) test -bench=. -benchmem ./...

# The resident-query cells (BenchmarkResidentQueries: warm and
# first-query, one CPU) from a test binary built once into .bench_build/,
# COUNT runs of each. To compare two commits, run this in a checkout of
# each — the build is the slow part and happens once a side — then
# alternate the two .bench_build/resident.test binaries with the same
# flags: a relink moves these cells by a few per cent, an interleaved
# order keeps the box's drift out of the difference.
COUNT ?= 5
bench-resident:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/resident.test .
	./.bench_build/resident.test -test.run '^$$' -test.bench BenchmarkResidentQueries -test.benchmem \
		-test.cpu 1 -test.benchtime 30x -test.count $(COUNT) -test.timeout 30m

# Phase 1's kernels alone (BenchmarkFoldRow: the MH fold of a fixed
# shard of Zipf rows; BenchmarkScanARows, BenchmarkScanCARows: one fixed
# encoded file decoded from memory; BenchmarkCollectARows: the same
# ".arows" file loaded into a Matrix) from test binaries built once into
# .bench_build/, COUNT runs of each; compare two commits the way
# bench-resident says.
bench-phase1:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/minhash.test ./internal/minhash
	$(GO) test -c -o .bench_build/matrix.test ./internal/matrix
	./.bench_build/minhash.test -test.run '^$$' -test.bench 'BenchmarkFoldRow$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m
	./.bench_build/matrix.test -test.run '^$$' -test.bench 'BenchmarkScanC?ARows$$|BenchmarkCollectARows$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 20x -test.count $(COUNT) -test.timeout 30m

# Phase 2's kernels (BenchmarkPhase2: the MH, K-MH and M-LSH kernels
# under the goroutine scheduler, index build included; BenchmarkScanWide:
# an MH and a K-MH scan, and every 7th column's Column, over a prebuilt
# index of 40k columns, the count loop alone; BenchmarkHashCountKMHWide:
# Hash-Count at that width;
# BenchmarkBandingWide: M-LSH banding over 40k columns;
# BenchmarkCandidates: H-LSH's one pass and fold ladder;
# BenchmarkRulesCandidates: §6's table — run index, two-agreement scan
# and count — on a synthetic set and on the full-scale news corpus) from
# test binaries built once into .bench_build/, COUNT runs of each;
# compare two commits the way bench-resident says.
bench-phase2:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/candidate.test ./internal/candidate
	$(GO) test -c -o .bench_build/lsh.test ./internal/lsh
	$(GO) test -c -o .bench_build/hamminglsh.test ./internal/hamminglsh
	$(GO) test -c -o .bench_build/rules.test ./internal/rules
	./.bench_build/candidate.test -test.run '^$$' -test.bench 'BenchmarkPhase2$$|BenchmarkScanWide$$|BenchmarkHashCountKMHWide$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m
	./.bench_build/lsh.test -test.run '^$$' -test.bench 'BenchmarkBandingWide$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m
	./.bench_build/hamminglsh.test -test.run '^$$' -test.bench 'BenchmarkCandidates$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 20x -test.count $(COUNT) -test.timeout 30m
	./.bench_build/rules.test -test.run '^$$' -test.bench 'BenchmarkRulesCandidates$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m

# Phase 3's containers and the BPS tally (BenchmarkPackedSparse,
# BenchmarkPackedDense, BenchmarkPackedSweepCluster, the streamed fill
# BenchmarkPackFromFile, BenchmarkBPSSampleWide) from test binaries
# built once into .bench_build/, COUNT runs of each; compare two commits
# the way bench-resident says.
bench-phase3:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/verify.test ./internal/verify
	$(GO) test -c -o .bench_build/bps.test ./internal/bps
	./.bench_build/verify.test -test.run '^$$' -test.bench 'BenchmarkPacked(Sparse|Dense|SweepCluster)$$|BenchmarkPackFromFile' -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m
	./.bench_build/bps.test -test.run '^$$' -test.bench BenchmarkBPSSampleWide -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m

# Regenerate every paper table and figure (text to stdout).
experiments:
	$(GO) run ./cmd/experiments

experiments-full:
	$(GO) run ./cmd/experiments -scale full

# Short fuzz pass over the codecs and dataset parsers. The fuzzer's
# minimisation of each new-coverage input is unbounded by default (60 s):
# FuzzScanVsByteLoop then spends most of its time there at 0 execs/sec
# (177k execs in 60 s, against 572k with 200 tries per input), so every
# target bounds it by FUZZMINIMIZE.
FUZZMINIMIZE ?= 200x
fuzz:
	$(GO) test ./internal/matrix -fuzz FuzzReadText -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/matrix -fuzz FuzzReadNamedTransactions -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/matrix -fuzz FuzzCArowsRoundTrip -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/matrix -fuzz FuzzScanRange -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/matrix -fuzz FuzzScanVsByteLoop -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/minhash -fuzz FuzzFoldStateRoundTrip -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/minhash -fuzz FuzzMergeVsBatch -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/minhash -fuzz FuzzCeilingVsSweep -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/kminhash -fuzz FuzzFoldStateRoundTrip -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/kminhash -fuzz FuzzMergeVsBatch -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test . -fuzz FuzzOpenFileDataset -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test . -fuzz FuzzLoadIngest -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/faultfs -fuzz FuzzPlanRowBinary -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/verify -fuzz FuzzPackedVsScalar -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/verify -fuzz FuzzPackedContainers -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/verify -fuzz FuzzSpillTableVsMap -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/bps -fuzz FuzzBPSSampler -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/radix -fuzz FuzzRadixSort -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/candidate -fuzz FuzzKernelColumn -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/rules -fuzz FuzzRulesCandidates -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/serve -fuzz FuzzHTTPQuery -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/serve -fuzz FuzzParseExpr -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)
	$(GO) test ./internal/dist -fuzz FuzzDistFrame -fuzztime 10s -fuzzminimizetime $(FUZZMINIMIZE)

# Non-test Go lines per package and in total, then the test-Go total
# (every _test.go) — the numbers every CHANGES.md entry records
# parent -> now. bench/ is the benchmark's own module and is not counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	@find . -name '*_test.go' ! -path './bench/*' ! -path './.*/*' | xargs cat | wc -l | \
		awk '{ printf "%7d test Go total\n", $$1 }'

clean:
	rm -rf internal/matrix/testdata/fuzz internal/faultfs/testdata/fuzz internal/serve/testdata/fuzz internal/dist/testdata/fuzz internal/candidate/testdata/fuzz internal/rules/testdata/fuzz
