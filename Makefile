# Standard-library Go module; no codegen, no vendoring. `make check` is
# the pre-PR gate (ROADMAP.md).

GO ?= go

.PHONY: build test bench benchall check fmt vet serve loadgen smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark set of scripts/bench.sh, parsed into BENCH_engine.json; the
# script's header lists what it runs and which results it gates.
# `make benchall` runs every root-package benchmark.
bench:
	./scripts/bench.sh

benchall:
	$(GO) test -run '^$$' -bench . -benchmem .

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

check:
	./scripts/check.sh

# Serving layer: `make serve` runs the contract-design daemon on
# localhost:8080, `make loadgen` fires a short burst at it, and
# `make smoke` does the whole boot → burst → SIGTERM-drain cycle
# unattended (same script CI runs).
serve:
	$(GO) run ./cmd/contractd

loadgen:
	$(GO) run ./cmd/loadgen -addr http://127.0.0.1:8080 -healthcheck -clients 4 -duration 3s -round-every 10

smoke:
	./scripts/smoke_server.sh
