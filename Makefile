# Verification entry points. `make check test race` is what CI runs.

.PHONY: all build check test race multicore lint bench bench-json fuzz manet-fuzz

all: build check test

build:
	go build ./...

# Static gate: gofmt, go vet, and the determinism linter (manetlint).
check:
	sh scripts/check.sh

# manetlint alone (also part of `go test ./...` via lint_test.go).
lint:
	go run ./cmd/manetlint ./...

test:
	go test ./...

race:
	go test -race ./...

# Multi-core determinism gate: the serial-vs-parallel equivalence
# suites of the two parallel tick phases (link build, LM update) and of
# whole runs, and a one-iteration smoke of the /par tick benchmarks,
# GOMAXPROCS pinned so the worker pool actually fans out. PAR_EQUIV is
# the only copy of the test list: CI's multicore job and
# scripts/check.sh both run this target.
PAR_EQUIV = ^(TestParallelMatchesSerial|TestUpdateTableParMatchesSerial|TestUpdateTableParReuse|TestUpdateWorkCounts|TestBuildUnitDiskParMatchesSerial|TestLogShadowParMatchesSerial|TestLinkBuildMatchesSortReference)$$
multicore:
	GOMAXPROCS=4 go test -run '$(PAR_EQUIV)' -count=1 ./internal/simnet ./internal/lm ./internal/topology
	GOMAXPROCS=4 go test -run '^$$' -bench 'BenchmarkTick(GraphRebuild|LMUpdate)/par' -benchtime=1x -cpu=4 .

# Property-based scenario fuzzing: random configs run with every-tick
# invariant checks and a serial-vs-parallel differential; failures are
# shrunk to a minimal (config, seed, tick) repro. Override the budget
# with FUZZTIME=10m; set MANET_FUZZ_FAILURES=<dir> to persist shrunk
# repros as corpus files.
FUZZTIME ?= 30s
fuzz manet-fuzz:
	go test ./internal/invariant/prop -run FuzzScenario -fuzz FuzzScenario -fuzztime $(FUZZTIME)

# Steady-state tick benchmarks: fresh, reuse and par variants, the
# hierarchy-maintenance interval matrix and the low-churn LM update.
bench:
	go test -run '^$$' -bench 'BenchmarkTick' -benchmem -benchtime=20x .

# Same benchmarks recorded to BENCH_<date>.json for review in diffs.
bench-json:
	sh scripts/bench.sh
