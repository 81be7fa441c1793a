#!/bin/sh
# Fuzz smoke (a CI stage of its own, kept out of `make check` so the
# pre-PR gate stays fast): finds every `func Fuzz*` target in the repo's
# test files and fuzzes each one, one at a time, for FUZZTIME (default
# 10s). Plain `go test` only replays the seed corpora; this run searches
# past them. A failing input is written under the package's
# testdata/fuzz/<target>/ by the go tool and fails the script. The go
# tool minimizes every new interesting input for up to -fuzzminimizetime
# (60s by default), which would eat a 10s budget whole on targets with
# kilobyte-sized seeds, so minimizing is capped at 1s.
#
#   ./scripts/fuzz_smoke.sh            # every target, 10s each
#   FUZZTIME=1m ./scripts/fuzz_smoke.sh
set -eu

cd "$(dirname "$0")/.."

fuzztime=${FUZZTIME:-10s}
targets=$(grep -rl --include='*_test.go' '^func Fuzz' . | sort)
if [ -z "$targets" ]; then
	echo "no fuzz targets found" >&2
	exit 1
fi

n=0
for file in $targets; do
	pkg=./$(dirname "${file#./}")
	for name in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
		n=$((n + 1))
		echo "==> $pkg $name ($fuzztime)"
		go test "$pkg" -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime" -fuzzminimizetime 1s -parallel 2 ||
			{ echo "FAIL: $pkg $name" >&2; exit 1; }
	done
done
echo "OK: $n fuzz targets"
