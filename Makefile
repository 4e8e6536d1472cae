GO ?= go

.PHONY: build test race vet fmt bench check metrics-smoke archive-smoke crash-smoke stream-smoke ingest-smoke replicated-smoke

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

# End-to-end profile-repository smoke: archive two runs through the CLI
# and diff them.
archive-smoke:
	./scripts/archive_smoke.sh

# End-to-end observability smoke: run tpupoint with -metrics on a real
# workload and assert the snapshot parses with nonzero core counters.
metrics-smoke:
	./scripts/metrics_smoke.sh

# Crash-consistency smoke: power-cut property test and fleet resume
# tests under -race, recovery counters, and a CLI fsck/salvage round
# trip over a deliberately torn archive.
crash-smoke:
	./scripts/crash_smoke.sh

# Streaming-analyzer smoke: archive a real run and tail it through the
# `tpupoint watch` verb at full rate and at duty cycle 1/10.
stream-smoke:
	./scripts/stream_smoke.sh

# Sharded-ingest smoke: contention/compaction suites under -race, plus
# a CLI fresh -shards 4 archive and compaction round trip.
ingest-smoke:
	./scripts/ingest_smoke.sh

# Replicated-collection smoke: replica failover suites under -race,
# then two real collector replicas over one shared store — 64 agents,
# a kill -9 and restart mid-fleet, and an offline zero-loss audit.
replicated-smoke:
	./scripts/replicated_smoke.sh

# The full gate: everything must build and pass gofmt, then
# scripts/check.sh runs vet (plus the vet-filter selftest), the test
# suite under the race detector, the -count=2 repeats and the shell
# smokes. That script is the only list of them. CI and pre-commit both
# run this.
check: build fmt
	./scripts/check.sh
