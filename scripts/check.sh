#!/bin/sh
# The pre-PR gate (see ROADMAP.md). Stages run in order, failing fast with
# a clear stage name:
#
#   1. build  — go build ./... (compile errors first, not buried in vet)
#   2. gofmt  — no unformatted files
#   3. vet    — go vet ./...
#   4. reference — no non-test Go file but internal/core/reference.go
#      names core.ReferenceDesign: the scalar design is the tests' oracle,
#      and production code designs through core.DesignInto
#   5. test   — the full suite under the race detector
#   6. perfbench — vet and test the benchmark module (perfbench/ is its
#      own Go module, so ./... above never compiles it)
#
# Run from anywhere; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

fail() {
	echo "FAIL at stage: $1" >&2
	exit 1
}

echo "==> [1/6] go build ./..."
go build ./... || fail build

echo "==> [2/6] gofmt"
unformatted=$(gofmt -l .) || fail gofmt
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	fail gofmt
fi

echo "==> [3/6] go vet ./..."
go vet ./... || fail vet

echo "==> [4/6] reference"
callers=$(grep -rlw --include='*.go' ReferenceDesign . | grep -v '_test\.go$' | grep -vx './internal/core/reference\.go') || true
if [ -n "$callers" ]; then
	echo "non-test files naming ReferenceDesign:" >&2
	echo "$callers" >&2
	fail reference
fi

echo "==> [5/6] go test -race ./..."
go test -race ./... || fail test

echo "==> [6/6] perfbench"
(cd perfbench && go vet . && go test .) || fail perfbench

echo "OK"
