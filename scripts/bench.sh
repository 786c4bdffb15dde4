#!/bin/sh
# Runs the steady-state tick benchmarks and records them as JSON, so
# allocation/latency changes are reviewable in the diff.
#
#   make bench-json          # appends an entry to BENCH_<date>.json
#   BENCH_COUNT=5 sh scripts/bench.sh   # more samples per benchmark
#
# Only the Tick* and BuildLinks sub-benchmarks are recorded: they
# isolate the scan tick's hot stages (graph rebuild, diff, hierarchy,
# LM update) in fresh vs reuse vs par variants, plus the per-link-model build cost
# (unitdisk vs logshadow µs/simsec, serial and par), which is the
# comparison worth tracking. The
# ClusterMaintain matrix (oracle-vs-incremental hierarchy maintenance
# across waypoint pause intervals) and the LMUpdate lowchurn legs
# record the churn-proportional maintenance speedup in µs/simsec. The -count
# repetitions are aggregated per benchmark (minimum ns/op — the
# least-noise sample — with its B/op and allocs/op), so each recorded
# entry has exactly one line per benchmark, and every entry is stamped
# with the commit it measured (git describe --always --dirty). Each
# run APPENDS one dated entry to the day's file ({"entries": [...]}),
# so repeated runs build a trajectory instead of overwriting the
# previous record; each entry also folds in an lmserve serve-mode
# sample (qps, query p50/p99, shed) so online-serving regressions
# track alongside. Appending needs jq; without it a fresh timestamped
# file is written instead, so no record is ever clobbered.
set -eu

cd "$(dirname "$0")/.."
count="${BENCH_COUNT:-3}"
date="$(date +%F)"
time="$(date +%T)"
commit="$(git describe --always --dirty 2>/dev/null || echo unknown)"
out="BENCH_${date}.json"
raw="$(mktemp)"
entry="$(mktemp)"
trap 'rm -f "$raw" "$entry"' EXIT

go test -run '^$' -bench 'Benchmark(Tick(GraphRebuild|Diff|Hierarchy|LMUpdate|ClusterMaintain)|BuildLinks)' \
	-benchmem -benchtime=20x -count="$count" . >"$raw"

awk -v date="$date" -v time="$time" -v commit="$commit" '
BEGIN { cpu = "unknown"; n = 0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	# Locate metrics by unit label: custom ReportMetric columns
	# (fastpath, us/simsec) shift the field positions.
	ns = ""; bytes = ""; allocs = ""; uss = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		else if ($(i + 1) == "B/op") bytes = $i
		else if ($(i + 1) == "allocs/op") allocs = $i
		else if ($(i + 1) == "µs/simsec" || $(i + 1) == "us/simsec") uss = $i
	}
	if (ns == "") next
	# Aggregate -count repeats: keep the minimum-ns/op sample.
	if (!(name in best) || ns + 0 < best[name] + 0) {
		if (!(name in best)) order[n++] = name
		best[name] = ns; bbytes[name] = bytes; ballocs[name] = allocs
		busims[name] = uss
		iters[name] = $2
	}
}
END {
	print "{"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"time\": \"%s\",\n", time
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		extra = (busims[name] != "" ? sprintf(", \"us_simsec\": %s", busims[name]) : "")
		printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s%s}%s\n", \
			name, iters[name], best[name], bbytes[name], ballocs[name], extra, (i < n - 1 ? "," : "")
	}
	printf "  ],\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\"\n", cpu
	print "}"
}' "$raw" >"$entry"

# Merge a wall-clock phase breakdown (graph rebuild / cluster / diff /
# LM update shares of the tick) from a short instrumented run, so the
# JSON records not just per-stage microbenchmarks but how the stages
# divide a real tick. Needs jq; silently skipped without it.
if command -v jq >/dev/null 2>&1; then
	phases="$(mktemp)"
	if go run ./cmd/lmsim -n 256 -duration 30 -warmup 10 \
		-manifest "$phases" >/dev/null 2>&1; then
		jq --slurpfile m "$phases" \
			'.phases.scan = $m[0].metrics.phases' "$entry" >"$entry.tmp"
		mv "$entry.tmp" "$entry"
	fi
	rm -f "$phases"

	# Serve mode: a short lmserve run records online throughput and
	# query-latency quantiles, so qps/p99 regressions in the serving
	# path show up in the same BENCH_*.json trajectory as the tick
	# microbenchmarks.
	smanifest="$(mktemp)"
	if go run ./cmd/lmserve -n 256 -duration 20 -warmup 5 -rate 10000 \
		-pace 0.002 -manifest "$smanifest" >/dev/null 2>&1; then
		jq --slurpfile m "$smanifest" \
			'.serve = {
				qps: $m[0].metrics.gauges["serve.qps"],
				p50_s: $m[0].metrics.hists["serve.query_latency"].p50_seconds,
				p99_s: $m[0].metrics.hists["serve.query_latency"].p99_seconds,
				shed: $m[0].metrics.counters["serve.shed"]
			}' "$entry" >"$entry.tmp"
		mv "$entry.tmp" "$entry"
	fi
	rm -f "$smanifest"
fi

if [ -f "$out" ]; then
	if command -v jq >/dev/null 2>&1; then
		# Legacy single-run files (no "entries") are wrapped first.
		jq --slurpfile new "$entry" \
			'(if has("entries") then . else {entries: [.]} end) | .entries += $new' \
			"$out" >"$out.tmp"
		mv "$out.tmp" "$out"
	else
		out="BENCH_${date}_$(date +%H%M%S).json"
		printf '{\n  "entries": [\n' >"$out"
		cat "$entry" >>"$out"
		printf '  ]\n}\n' >>"$out"
	fi
else
	printf '{\n  "entries": [\n' >"$out"
	cat "$entry" >>"$out"
	printf '  ]\n}\n' >>"$out"
fi

echo "wrote $out"
