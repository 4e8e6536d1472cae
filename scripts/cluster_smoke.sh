#!/usr/bin/env bash
# Multi-tenant cluster smoke: the scheduler-determinism contract under
# the race detector, then a CLI round trip — a seeded 8-worker rush
# fleet scheduled and archived into a real on-disk repository, its
# fairness report checked, the repository sliced per tenant with
# `runs list -tenant`, two tenants' profiles cross-diffed, and the
# whole simulation repeated to prove the archived bytes replay
# bit-identically.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== determinism + zero-loss + work-conservation under -race"
./scripts/named_tests.sh ./internal/cluster \
    TestDeterminismAcrossParallelism TestZeroLossAccounting TestPropertyLeastLoadedWorkConserving TestAffinityReducesSetups

workdir="$(mktemp -d /tmp/cluster_smoke.XXXXXX)"
trap 'rm -rf "$workdir"' EXIT

bin="$workdir/tpupoint"
go build -o "$bin" ./cmd/tpupoint

echo "== seeded 8-worker rush fleet, least-loaded routing"
report="$("$bin" -archive "$workdir/runs" cluster -preset rush -policy least-loaded -seed 42)"
echo "$report" | head -8
echo "$report" | grep -q 'Jain'
echo "$report" | grep -q 'archived:'

echo "== per-tenant slices via runs list -tenant"
for tenant in vision nlp detect batch; do
    list="$("$bin" -archive "$workdir/runs" runs list -tenant "$tenant")"
    echo "$list" | tail -n +2 | grep -q "$tenant" || {
        echo "cluster_smoke.sh: no archived runs for tenant $tenant" >&2
        exit 1
    }
done
# A tenant filter must not leak other tenants' runs.
if "$bin" -archive "$workdir/runs" runs list -tenant vision | grep -q 'nlp'; then
    echo "cluster_smoke.sh: tenant filter leaked foreign runs" >&2
    exit 1
fi

echo "== cross-tenant profile diff (vision vs nlp)"
a="$("$bin" -archive "$workdir/runs" runs list -tenant vision | awk 'NR==2{print $1}')"
b="$("$bin" -archive "$workdir/runs" runs list -tenant nlp | awk 'NR==2{print $1}')"
diff_out="$("$bin" -archive "$workdir/runs" runs diff "$a" "$b")"
echo "$diff_out" | head -4
echo "$diff_out" | grep -q 'phase'

echo "== repository integrity"
"$bin" -archive "$workdir/runs" runs fsck >/dev/null

echo "== replay determinism: same seed, fresh repository, identical bytes"
"$bin" -archive "$workdir/runs2" cluster -preset rush -policy least-loaded -seed 42 >/dev/null
if ! diff -r "$workdir/runs/runs" "$workdir/runs2/runs" >/dev/null; then
    echo "cluster_smoke.sh: replay produced different archives" >&2
    exit 1
fi

echo "cluster smoke: OK"
