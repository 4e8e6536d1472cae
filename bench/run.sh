#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it with
# the arguments given: --workload W --seed N --seconds S --trace 0|1.
#
# The scratch directory .bench_build/tmp is covered with a tmpfs in a mount
# namespace of the run's own, gone when it exits: on the ext4-over-virtio
# disk of the VMs this runs on, the store's rename-per-write takes 60% of
# collect-small's time and moves it by half between identical runs
# (bench/README.md). Where mounting is not allowed the directory is used
# as it is; the report says which (process.scratch_ram).
set -euo pipefail
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/tpubench ./bench
if unshare -m mount -t tmpfs -o size=2g tmpfs .bench_build/tmp 2>/dev/null; then
	exec unshare -m sh -c 'mount -t tmpfs -o size=2g tmpfs .bench_build/tmp && exec "$@"' sh .bench_build/tpubench "$@"
fi
exec .bench_build/tpubench "$@"
