GO ?= go

.PHONY: build test race vet fmt bench check crash-smoke replicated-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail-listing formatter gate: prints offending files and exits
# non-zero when anything is unformatted. `gofmt -w .` fixes them.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The benchmark BENCHMARK.json declares: four workloads, end-to-end and
# per-layer metrics (bench/README.md).
bench:
	bash bench/run.sh

# Crash-consistency smoke: power-cut property tests, DirStore contract
# and fleet resume tests under -race, by name, plus the recovery
# counters. The CLI's own contract (archive, diff, watch, sharded
# ingest, salvage, -metrics) is checked by `go test ./cmd/tpupoint`.
crash-smoke:
	./scripts/crash_smoke.sh

# Replicated-collection smoke: replica failover suites under -race,
# then two real collector replicas over one shared store — 64 agents,
# a kill -9 and restart mid-fleet, and an offline zero-loss audit.
replicated-smoke:
	./scripts/replicated_smoke.sh

# The full gate: everything must build and pass gofmt, then
# scripts/check.sh runs vet (plus the vet-filter selftest), the test
# suite under the race detector, the -count=N repeats, the by-name test
# lists, the examples and the crash and replicated smokes. That script
# is the only list of them. CI and pre-commit both run this.
check: build fmt
	./scripts/check.sh
