#!/bin/sh
# check.sh — static verification gate: formatting, vet, and the
# project determinism linter (manetlint). Run from anywhere inside the
# repository; `make check` is the usual entry point.
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    fail=1
fi

echo "== go vet"
go vet ./... || fail=1

echo "== manetlint"
go run ./cmd/manetlint ./... || fail=1

# Third-party static gates. Pinned versions match .github/workflows/
# ci.yml; install with
#   go install honnef.co/go/tools/cmd/staticcheck@2023.1.7
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.3
# Escape hatch: export SKIP_STATICCHECK / SKIP_GOVULNCHECK with a
# reason string to skip a gate while a false positive is triaged.
echo "== staticcheck"
if [ -n "${SKIP_STATICCHECK:-}" ]; then
    echo "staticcheck: skipped ($SKIP_STATICCHECK)" >&2
elif command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./... || fail=1
else
    echo "staticcheck: not installed, skipping" >&2
fi

echo "== govulncheck"
if [ -n "${SKIP_GOVULNCHECK:-}" ]; then
    echo "govulncheck: skipped ($SKIP_GOVULNCHECK)" >&2
elif command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./... || fail=1
else
    echo "govulncheck: not installed, skipping" >&2
fi

echo "== model zoo (cross-model invariant matrix, race)"
# The cross-model suites under -race (CI runs them in its race job):
# the lossy link model passes the every-tick battery and its repeat-run
# byte-identity, and the zoo unit suites hold.
go test -race -run 'TestZoo|TestGaussMarkov|TestManhattan|TestHotspot' -count=1 ./internal/mobility || fail=1
go test -race -run 'TestLogShadow' -count=1 ./internal/topology || fail=1
go test -race -run 'TestLogShadow|TestLinkConfigValidation' -count=1 ./internal/simnet || fail=1

echo "== race tests (measurement pipeline + serving path)"
go test -race -short ./internal/obs ./internal/trace ./internal/stats ./internal/runner ./internal/serve || fail=1

echo "== manifest smoke"
manifest_tmp=$(mktemp)
if go run ./cmd/experiments -run E4 -quick -manifest "$manifest_tmp" >/dev/null 2>&1; then
    if command -v jq >/dev/null 2>&1; then
        # The manifest must be valid JSON with per-phase timings and a
        # tick total at least as large as any sub-phase sum component.
        jq -e '.tool == "experiments"
               and (.metrics.phases | has("tick.total"))
               and (.metrics.phases["tick.total"].seconds > 0)
               and (.metrics.counters["sweep.cells_ok"] > 0)' \
            "$manifest_tmp" >/dev/null || { echo "manifest smoke: bad manifest" >&2; fail=1; }
    else
        echo "manifest smoke: jq not found, skipping schema assertion" >&2
    fi
else
    echo "manifest smoke: experiments run failed" >&2
    fail=1
fi
rm -f "$manifest_tmp"

echo "== lmserve smoke"
# A short serving run must produce a manifest whose serve metrics show
# requests flowing, throughput measured, and query latency recorded.
serve_tmp=$(mktemp)
if go run ./cmd/lmserve -n 128 -duration 6 -warmup 2 -rate 4000 -pace 0.002 \
    -manifest "$serve_tmp" >/dev/null 2>&1; then
    if command -v jq >/dev/null 2>&1; then
        jq -e '.tool == "lmserve"
               and (.metrics.counters["serve.requests"] > 0)
               and (.metrics.gauges["serve.qps"] > 0)
               and (.metrics.hists["serve.query_latency"].count > 0)
               and (.metrics.hists["serve.query_latency"].p99_seconds > 0)' \
            "$serve_tmp" >/dev/null || { echo "lmserve smoke: bad manifest" >&2; fail=1; }
    else
        echo "lmserve smoke: jq not found, skipping schema assertion" >&2
    fi
else
    echo "lmserve smoke: serve run failed" >&2
    fail=1
fi
rm -f "$serve_tmp"

echo "== bench reference digests"
# Mirrors the CI benchref job: the bench module's tests, then one short
# run of every workload, each of which checks its seed-1 Results digest
# against bench/digests.json.
(cd bench && go test ./...) || fail=1
ref_tmp=$(mktemp)
if bash bench/run.sh --workload all --seed 1 --seconds 1 --trace 0 --out "$ref_tmp" >/dev/null; then
    if command -v jq >/dev/null 2>&1; then
        jq -s -e 'length == 4 and all(.[]; .correct and .failed == 0)' "$ref_tmp" >/dev/null ||
            { echo "bench reference: a workload was incorrect or failed" >&2; fail=1; }
    else
        echo "bench reference: jq not found, skipping the digest assertion" >&2
    fi
else
    echo "bench reference: bench run failed" >&2
    fail=1
fi
rm -f "$ref_tmp"

if [ "$fail" -ne 0 ]; then
    echo "check: FAILED" >&2
    exit 1
fi
echo "check: OK"
