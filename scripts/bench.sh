#!/bin/sh
# Engine benchmark runner (`make bench`): runs the round-loop benchmarks —
# BenchmarkEngineRound1k (design-dedup, weight-drift and respond-memo
# regimes),
# BenchmarkEngineRound100k (the warm round, the dedup-cold and 5,000-key
# manykey-cold cold rounds, plus the full-rebuild, sparse-drift-1pct,
# and structural-churn-1pct drift variants pinning the touched-scope and
# join/leave-splice speedups),
# BenchmarkTelemetryOverhead (instrumented vs
# telemetry.Nop), BenchmarkTraceOverhead (span tracing disabled vs
# sampled-out vs sampled-in on the same warm round), the HTTP serving
# benchmarks
# BenchmarkServerDesignConcurrent (concurrent design queries at 1, 8 and 32
# clients) and BenchmarkServerDriftRoute (tracked for
# trend only, not regression-gated — they ride
# the loopback network stack), BenchmarkServerStep (one served step's
# drift, round and design-by-id through the server's Handler in process,
# at 1k, 10k and 100k agents, plus design-inline — a query carrying an
# inline agent, the form perfbench's paper-serve and restart send;
# trend only), and BenchmarkJournalAppend (the
# write-ahead hop per journaled command, buffered and fsync; trend only —
# the fsync arm benchmarks the storage stack, not the code), and from
# internal/server BenchmarkRoundLogAdd (a served session's ledger add at
# 12k agents: first-round — 12k joiners into an empty log — and
# antiphase, all-fresh and churning rounds; trend only, with the log's
# retained bytes per round) and BenchmarkCreateSession (the create body's
# single-pass decode against encoding/json, the whole create route, and
# create+round — create plus the first round, the span perfbench's
# setup_s samples — at 1k and 12k archetype agents and on paper,
# paper-serve's 6.3k agents with a design key each; trend only), and from
# internal/contract BenchmarkContractAppendJSON (encoding an m = 20
# contract: first — formatting its 42 floats — against memoized — copying
# the encoding a contract keeps after its first encode; trend only) —
# with -benchmem,
# prints the standard output, and writes the parsed results to
# BENCH_engine.json as one JSON array of
#   {"name", "iterations", "ns_per_op", "bytes_per_op", "allocs_per_op"}
# objects (plus "retained_bytes_per_round" where a benchmark reports
# B/round), so the acceptance bars (telemetry overhead ≤5%, respond-memo
# warm-round speedup, the journal append's share of sequential-warm) can
# be checked from the file. The engine runs one round pipeline, so
# sequential-warm is the warm round; it stays regression-gated below.
#
# The drift bars are gated as same-run ratios: the fresh run fails when
# BenchmarkEngineRound100k/sparse-drift-1pct or structural-churn-1pct
# takes more than 10% of the same run's full-rebuild, or when any of
# the three arms is missing. A ratio of two arms timed on one machine in
# one run does not depend on the machine, so this gate holds even under
# BENCH_ALLOW_REGRESSION=1.
#
# BenchmarkServerStep is gated the same way: the fresh run fails when
# design-by-id or drift at n=100k takes more than 2× the same run's n=1k
# arm (a served step must cost what it touches, not what the session
# holds), or when any of the four arms is missing. Its round and
# design-inline arms are trend-only — the settle pass and the ledger's
# round log still walk all n agents, and design-inline adds only the
# inline agent's decode and validation to design-by-id.
#
# Before overwriting, the fresh run is diffed against the committed
# BENCH_engine.json: every benchmark's ns/op delta is printed, a >10%
# regression warns, and a >25% regression on a gated benchmark
# (dedup-cold — the batched cold design path, optimized and now
# regression-gated — dedup-warm, weight-drift-all — every weight moving
# every round over warm design menus — respond-memo-warm, sequential-warm,
# sparse-drift, structural-churn — the in-place join/leave
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

go test -run '^$' -bench 'BenchmarkEngineRound1k|BenchmarkEngineRound100k|BenchmarkTelemetryOverhead|BenchmarkTraceOverhead|BenchmarkServerDesignConcurrent|BenchmarkServerDriftRoute|BenchmarkServerStep|BenchmarkJournalAppend' -benchmem . | tee "$raw"
go test -run '^$' -bench 'BenchmarkRoundLogAdd|BenchmarkCreateSession' -benchmem ./internal/server | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkContractAppendJSON' -benchmem ./internal/contract | tee -a "$raw"

awk '
BEGIN { print "["; n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	ns = ""; bytes = ""; allocs = ""; retained = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "B/op") bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
		if ($(i+1) == "B/round") retained = $i
	}
	if (ns == "") next
	if (n++) printf ",\n"
	printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
	if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	if (retained != "") printf ", \"retained_bytes_per_round\": %s", retained
	printf "}"
}
END { print "\n]" }
' "$raw" > "$fresh"

echo
echo "drift ratios vs full-rebuild (same run, bar <= 0.10):"
awk '
match($0, /"name": "BenchmarkEngineRound100k\/[^"]+"/) {
	name = substr($0, RSTART + 34, RLENGTH - 35)
	if (match($0, /"ns_per_op": [0-9.e+]+/))
		ns[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
}
END {
	if (!(ns["full-rebuild"] > 0)) {
		print "  FAIL: full-rebuild arm missing"
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
		r = ns[a] / ns["full-rebuild"]
		printf "  %-25s %.3f\n", a, r
		if (r > 0.10) {
			printf "  FAIL: %s / full-rebuild = %.3f > 0.10\n", a, r
			failed = 1
		}
	}
	exit failed
}
' "$fresh"

echo
echo "served step ratios n=100k / n=1k (same run, bar <= 2.0):"
awk '
match($0, /"name": "BenchmarkServerStep\/[^"]+"/) {
	name = substr($0, RSTART + 29, RLENGTH - 30)
	if (match($0, /"ns_per_op": [0-9.e+]+/))
		ns[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
}
END {
	split("design-by-id drift", arms, " ")
	for (i = 1; i <= 2; i++) {
		a = arms[i]
		big = "n=100k/" a
		small = "n=1k/" a
		if (!(ns[big] > 0) || !(ns[small] > 0)) {
			printf "  FAIL: BenchmarkServerStep %s arm missing\n", a
			failed = 1
			continue
		}
		r = ns[big] / ns[small]
		printf "  %-25s %.3f\n", a, r
		if (r > 2.0) {
			printf "  FAIL: %s / %s = %.3f > 2.0\n", big, small, r
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
		warm = (name ~ /dedup-cold|dedup-warm|weight-drift-all|respond-memo-warm|sequential-warm|sparse-drift|structural-churn|TelemetryOverhead|TraceOverhead\/disabled/)
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
