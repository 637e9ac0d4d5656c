# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check benchcheck race-all exports vet fmt bench bench-resident bench-phase3 experiments experiments-full fuzz loc clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole gate: every package under the race detector (which runs
# every differential harness — streamed, chaos, packed, compressed,
# incremental, BPS, dist, serve, statistical — and the exported-surface
# sweep exactly once; they are ordinary tests of their packages, not
# separate suites), plus the benchmark module's own vet and smoke test.
check: build vet race-all benchcheck

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
# counts) or a line on internal/testutil/testdata/unused_exports.txt.
# K: an exported root name needs a caller in cmd/, examples/,
# internal/serve, internal/eval, bench/ or an Example* test, or a line on
# testdata/unused_root_exports.txt. Both lists only shrink. It is an
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

# Phase 3's containers and the BPS tally (BenchmarkPackedSparse,
# BenchmarkPackedDense, BenchmarkBPSSampleWide) from test binaries built
# once into .bench_build/, COUNT runs of each; compare two commits the
# way bench-resident says.
bench-phase3:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/verify.test ./internal/verify
	$(GO) test -c -o .bench_build/bps.test ./internal/bps
	./.bench_build/verify.test -test.run '^$$' -test.bench 'BenchmarkPacked(Sparse|Dense)$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m
	./.bench_build/bps.test -test.run '^$$' -test.bench BenchmarkBPSSampleWide -test.benchmem \
		-test.cpu 1 -test.benchtime 5x -test.count $(COUNT) -test.timeout 30m

# Regenerate every paper table and figure (text to stdout).
experiments:
	$(GO) run ./cmd/experiments

experiments-full:
	$(GO) run ./cmd/experiments -scale full

# Short fuzz pass over the codecs and dataset parsers.
fuzz:
	$(GO) test ./internal/matrix -fuzz FuzzReadText -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzReadBinary -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzReadNamedTransactions -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzCArowsRoundTrip -fuzztime 10s
	$(GO) test ./internal/matrix -fuzz FuzzScanRange -fuzztime 10s
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
	$(GO) test ./internal/verify -fuzz FuzzPackedContainers -fuzztime 10s
	$(GO) test ./internal/verify -fuzz FuzzSpillTableVsMap -fuzztime 10s
	$(GO) test ./internal/bps -fuzz FuzzBPSSampler -fuzztime 10s
	$(GO) test ./internal/radix -fuzz FuzzRadixSort -fuzztime 10s
	$(GO) test ./internal/candidate -fuzz FuzzKernelColumn -fuzztime 10s
	$(GO) test ./internal/rules -fuzz FuzzRulesCandidates -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzHTTPQuery -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzParseExpr -fuzztime 10s
	$(GO) test ./internal/dist -fuzz FuzzDistFrame -fuzztime 10s

# Non-test Go lines per package and in total — the number every
# CHANGES.md entry records parent -> now. bench/ is the benchmark's own
# module and is not counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

clean:
	rm -rf internal/matrix/testdata/fuzz internal/faultfs/testdata/fuzz internal/serve/testdata/fuzz internal/dist/testdata/fuzz internal/candidate/testdata/fuzz internal/rules/testdata/fuzz
