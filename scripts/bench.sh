#!/bin/sh
# Engine benchmark runner (`make bench`): runs the round-loop benchmarks —
# BenchmarkEngineRound1k (design-dedup, weight-drift and respond-memo
# regimes),
# BenchmarkEngineRound100k (one-shard vs eight-shard warm rounds, plus the
# sharded-rebuild, sparse-drift-1pct, and structural-churn-1pct drift
# variants pinning the touched-scope and join/leave-splice speedups),
# BenchmarkTelemetryOverhead (instrumented vs
# telemetry.Nop), BenchmarkTraceOverhead (span tracing disabled vs
# sampled-out vs sampled-in on the same warm round), the HTTP serving
# benchmarks
# BenchmarkServerDesignBatch and BenchmarkServerDriftRoute (tracked for
# trend only, not regression-gated — they ride
# the loopback network stack), and BenchmarkJournalAppend (the
# write-ahead hop per journaled command, buffered and fsync; trend only —
# the fsync arm benchmarks the storage stack, not the code) — with
# -benchmem, prints the standard output, and writes the parsed results to
# BENCH_engine.json as one JSON array of
#   {"name", "iterations", "ns_per_op", "bytes_per_op", "allocs_per_op"}
# objects, so the acceptance bars (telemetry overhead ≤5%, respond-memo
# warm-round speedup) can be checked from the file. The former
# "sharded-warm ≥4× sequential-warm" bar is retired: an engine with
# Config.Shards = 0 runs the same pipeline as one shard, so
# sequential-warm is the one-shard warm round and both arms skip the warm
# respond stage. Both stay regression-gated below.
#
# The drift bars are gated as same-run ratios: the fresh run fails when
# BenchmarkEngineRound100k/sparse-drift-1pct or structural-churn-1pct
# takes more than 10% of the same run's sharded-rebuild, or when any of
# the three arms is missing. A ratio of two arms timed on one machine in
# one run does not depend on the machine, so this gate holds even under
# BENCH_ALLOW_REGRESSION=1.
#
# Before overwriting, the fresh run is diffed against the committed
# BENCH_engine.json: every benchmark's ns/op delta is printed, a >10%
# regression warns, and a >25% regression on a gated benchmark
# (dedup-cold — the batched cold design path, optimized and now
# regression-gated — dedup-warm, weight-drift-all — every weight moving
# every round over warm design menus — respond-memo-warm, sequential-warm,
# sharded-warm, sparse-drift, structural-churn — the in-place join/leave
# splice — TelemetryOverhead, TraceOverhead/disabled —
# the last pins that tracing left off costs nothing) fails the run
# without touching the committed baseline. Set BENCH_ALLOW_REGRESSION=1
# to record
# the new numbers anyway (e.g. after an intentional trade-off or on a
# slower machine).
set -eu

cd "$(dirname "$0")/.."

out=BENCH_engine.json
raw=$(mktemp)
fresh=$(mktemp)
trap 'rm -f "$raw" "$fresh"' EXIT

go test -run '^$' -bench 'BenchmarkEngineRound1k|BenchmarkEngineRound100k|BenchmarkTelemetryOverhead|BenchmarkTraceOverhead|BenchmarkServerDesignBatch|BenchmarkServerDriftRoute|BenchmarkJournalAppend' -benchmem . | tee "$raw"

awk '
BEGIN { print "["; n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "B/op") bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	if (n++) printf ",\n"
	printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
	if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	printf "}"
}
END { print "\n]" }
' "$raw" > "$fresh"

echo
echo "drift ratios vs sharded-rebuild (same run, bar <= 0.10):"
awk '
match($0, /"name": "BenchmarkEngineRound100k\/[^"]+"/) {
	name = substr($0, RSTART + 34, RLENGTH - 35)
	if (match($0, /"ns_per_op": [0-9.e+]+/))
		ns[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
}
END {
	if (!(ns["sharded-rebuild"] > 0)) {
		print "  FAIL: sharded-rebuild arm missing"
		exit 1
	}
	split("sparse-drift-1pct structural-churn-1pct", arms, " ")
	for (i = 1; i <= 2; i++) {
		a = arms[i]
		if (!(a in ns)) {
			printf "  FAIL: %s arm missing\n", a
			failed = 1
			continue
		}
		r = ns[a] / ns["sharded-rebuild"]
		printf "  %-25s %.3f\n", a, r
		if (r > 0.10) {
			printf "  FAIL: %s / sharded-rebuild = %.3f > 0.10\n", a, r
			failed = 1
		}
	}
	exit failed
}
' "$fresh"

if [ -f "$out" ]; then
	echo
	echo "ns/op vs committed $out:"
	awk -v allow="${BENCH_ALLOW_REGRESSION:-0}" '
	FNR == NR {
		# Parse the committed baseline: one object per line.
		if (match($0, /"name": "[^"]+"/)) {
			name = substr($0, RSTART + 9, RLENGTH - 10)
			if (match($0, /"ns_per_op": [0-9.e+]+/))
				base[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
		}
		next
	}
	{
		if (!match($0, /"name": "[^"]+"/)) next
		name = substr($0, RSTART + 9, RLENGTH - 10)
		if (!match($0, /"ns_per_op": [0-9.e+]+/)) next
		ns = substr($0, RSTART + 13, RLENGTH - 13) + 0
		if (!(name in base)) {
			printf "  %-55s %12.0f ns/op  (new, no baseline)\n", name, ns
			next
		}
		delta = (ns - base[name]) / base[name] * 100
		printf "  %-55s %12.0f ns/op  %+7.1f%%\n", name, ns, delta
		warm = (name ~ /dedup-cold|dedup-warm|weight-drift-all|respond-memo-warm|sequential-warm|sharded-warm|sparse-drift|structural-churn|TelemetryOverhead|TraceOverhead\/disabled/)
		if (warm && delta > 25) {
			printf "  FAIL: %s regressed %.1f%% (>25%% on a warm-round benchmark)\n", name, delta
			failed = 1
		} else if (delta > 10) {
			printf "  WARN: %s regressed %.1f%% (>10%%)\n", name, delta
		}
	}
	END {
		if (failed && allow != "1") {
			print "  benchmark regression: baseline left untouched (set BENCH_ALLOW_REGRESSION=1 to record anyway)"
			exit 1
		}
		if (failed)
			print "  BENCH_ALLOW_REGRESSION=1: recording regressed numbers"
	}
	' "$out" "$fresh"
fi

mv "$fresh" "$out"
trap 'rm -f "$raw"' EXIT
echo "wrote $out"
