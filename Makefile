# Verification entry points. `make check test race` is what CI runs.

.PHONY: all build check test race lint bench bench-json fuzz manet-fuzz

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

# Property-based scenario fuzzing: random configs run with every-tick
# invariant checks; failures are
# shrunk to a minimal (config, seed, tick) repro. Override the budget
# with FUZZTIME=10m; set MANET_FUZZ_FAILURES=<dir> to persist shrunk
# repros as corpus files.
FUZZTIME ?= 30s
fuzz manet-fuzz:
	go test ./internal/invariant/prop -run FuzzScenario -fuzz FuzzScenario -fuzztime $(FUZZTIME)

# Steady-state tick benchmarks: fresh and reuse variants, the
# hierarchy-maintenance interval matrix and the low-churn LM update.
bench:
	go test -run '^$$' -bench 'BenchmarkTick' -benchmem -benchtime=20x .

# Same benchmarks recorded to BENCH_<date>.json for review in diffs.
bench-json:
	sh scripts/bench.sh
