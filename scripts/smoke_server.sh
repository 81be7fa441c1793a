#!/bin/sh
# Serving-layer smoke test (`make smoke`, also a CI stage): builds
# contractd, loadgen, driftcheck, and tracecheck, starts the daemon with
# -trace and an fsync journal on a loopback port, waits for /healthz via
# `loadgen -healthcheck`, fires a short strict closed-loop burst (design
# queries, round advances, and sparse drift mutations) followed by a
# strict -churn burst (every round advance preceded by an all-agent
# fresh-weight drift, driving the batched cold design path) and a strict
# structural-churn burst (agents joining and leaving mid-session via
# -join-every / -leave-every) and a strict -scale burst (a synthpop
# pipeline population that loadgen builds and posts as explicit agents),
# then exercises the durability contract:
# a -journal-check burst records every acknowledged round client-side,
# the daemon is killed with SIGKILL mid-life, restarted over the same
# journal directory, and a second -journal-check run must find every
# recorded round byte-identical in the recovered ledger before driving
# more load onto the same session. The driftcheck probe (a one-agent
# drift must report touched=1 and perturb only that agent's ledger row;
# a join/leave burst of five must splice exactly those rows in and out
# with every other row byte-identical) and the tracecheck probe (a round
# advanced under a known X-Request-Id must come back from /debug/traces
# as a parseable trace covering HTTP handler -> session queue -> engine
# round -> stages, in JSONL and Chrome formats, and a design query under
# another known id as its HTTP root with a session.design child naming
# the agent) run against
# the recovered process, which then gets SIGTERM and must drain cleanly —
# exit 0 with its "bye" sign-off logged and a drain summary naming the
# rounds_advance route with no count >= 2^53. Any 5xx during the bursts, a
# failed health probe, a round lost or changed across the kill, a drift
# leaking into untouched agents' rows, a missing or malformed trace, or
# an unclean shutdown fails the script.
#
# Override the port with SMOKE_PORT if 18473 is taken.
set -eu

cd "$(dirname "$0")/.."

work=$(mktemp -d)
log="$work/contractd.log"
log2="$work/contractd-recovered.log"
pid=""
cleanup() {
	status=$?
	if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
		kill "$pid" 2>/dev/null || true
	fi
	if [ "$status" -ne 0 ]; then
		for f in "$log" "$log2"; do
			if [ -f "$f" ]; then
				echo "--- $f ---"
				cat "$f"
			fi
		done
	fi
	rm -rf "$work"
	exit "$status"
}
trap cleanup EXIT

echo "building contractd, loadgen, driftcheck, and tracecheck..."
go build -o "$work/contractd" ./cmd/contractd
go build -o "$work/loadgen" ./cmd/loadgen
go build -o "$work/driftcheck" ./scripts/driftcheck
go build -o "$work/tracecheck" ./scripts/tracecheck

addr="127.0.0.1:${SMOKE_PORT:-18473}"
jflags="-journal-dir $work/journal -journal-sync fsync -snapshot-every 16"
"$work/contractd" -listen "$addr" -drain-timeout 10s -trace $jflags >"$log" 2>&1 &
pid=$!

echo "waiting for http://$addr/healthz..."
"$work/loadgen" -addr "http://$addr" -healthcheck -healthcheck-timeout 10s

echo "running strict load burst..."
"$work/loadgen" -addr "http://$addr" -clients 4 -requests 25 -round-every 5 -drift-every 7 -drift-agents 2 -strict

echo "running strict churn burst (all-cold design rounds)..."
"$work/loadgen" -addr "http://$addr" -clients 2 -requests 20 -round-every 4 -churn -strict

echo "running strict structural-churn burst (joins and leaves)..."
"$work/loadgen" -addr "http://$addr" -clients 2 -requests 24 -round-every 6 -join-every 3 -leave-every 3 -strict

echo "running strict scale burst (pipeline population built by loadgen)..."
"$work/loadgen" -addr "http://$addr" -scale small -per-class 10 -clients 2 -requests 20 -round-every 2 -drift-every 3 -strict

echo "running journal-check burst (recording acknowledged rounds)..."
"$work/loadgen" -addr "http://$addr" -clients 2 -requests 20 -round-every 2 -journal-check "$work/journal-check.json" -strict

echo "killing contractd with SIGKILL..."
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "restarting contractd over the same journal..."
"$work/contractd" -listen "$addr" -drain-timeout 10s -trace $jflags >"$log2" 2>&1 &
pid=$!

echo "waiting for http://$addr/healthz..."
"$work/loadgen" -addr "http://$addr" -healthcheck -healthcheck-timeout 10s

grep -q "msg=\"session recovered\"" "$log2" || {
	echo "smoke: restart log missing session recovery" >&2
	exit 1
}

echo "verifying recorded rounds against the recovered ledger..."
"$work/loadgen" -addr "http://$addr" -clients 2 -requests 10 -round-every 2 -journal-check "$work/journal-check.json" -strict

echo "running sparse-drift ledger probe..."
"$work/driftcheck" -addr "http://$addr"

echo "running trace coverage probe..."
"$work/tracecheck" -addr "http://$addr"

echo "sending SIGTERM..."
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "smoke: contractd did not exit within 10s of SIGTERM" >&2
		exit 1
	fi
	sleep 0.1
done
wait "$pid" || {
	echo "smoke: contractd exited non-zero" >&2
	exit 1
}
pid=""

grep -q "msg=bye" "$log2" || {
	echo "smoke: drain sign-off missing from log" >&2
	exit 1
}
# The drain summary prints every HTTP route metric under its registry
# name: it must name the round-advance route, and no count may be an
# unsigned wrap-around (>= 2^53 cannot be a real request count).
grep -q "^  dyncontract_http_rounds_advance_requests_total " "$log2" || {
	echo "smoke: drain summary missing the rounds_advance route" >&2
	exit 1
}
if awk '$1 ~ /^dyncontract_http_/ { v = ($2 == "count") ? $3 : $2; if (v + 0 >= 9007199254740992) bad = 1 }
	END { exit !bad }' "$log2"; then
	echo "smoke: drain summary count >= 2^53" >&2
	exit 1
fi
echo "smoke: clean drain and crash recovery confirmed"
