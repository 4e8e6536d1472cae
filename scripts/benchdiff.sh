#!/usr/bin/env bash
# Benchmark regression gate: regenerate the analyzer, archive, stream,
# and ingest benchmarks in quick mode and compare them against the
# committed BENCH_analyzer.json / BENCH_archive.json / BENCH_stream.json
# / BENCH_ingest.json baselines. Fails when any shared kernel/mode/n
# entry regresses past the tolerance, when the streaming analyzer's
# fidelity against batch OLS falls outside the MIN_STREAM_F1 /
# MAX_SHARE_MAPE floors, when the sharded repository's p99 save latency
# regresses past MAX_INGEST_P99_REGRESS, or when the cluster scheduler's throughput falls below
# MIN_CLUSTER_THROUGHPUT or its simulated-time fairness surface (p99
# queueing delay, Jain's index) drifts past MAX_CLUSTER_P99_REGRESS.
#
# Environment:
#   BENCH_TOLERANCE      allowed ns/op regression fraction (default 0.25;
#                        looser than benchdiff's 0.15 default because the
#                        quick run measures fewer iterations)
#   ALLOC_TOLERANCE      allowed allocs/op regression fraction for the
#                        codec kernels (default 0.10 — allocation counts
#                        are near-deterministic, so this stays tight)
#   MIN_DECODE_SPEEDUP   required archive parallel-decode speedup at the
#                        largest n (default 2; benchdiff only enforces it
#                        when the run had GOMAXPROCS >= 4)
#   MIN_STREAM_F1        required streaming phase-boundary F1 vs the
#                        batch analyzer at duty 1/10 (default 0.9)
#   MAX_SHARE_MAPE       allowed streaming time-share MAPE vs the batch
#                        analyzer at duty 1/10 (default 0.10)
#   MAX_INGEST_P99_REGRESS allowed p99 save-latency regression fraction
#                        per ingest agent count (default 3.0 — concurrent
#                        latency tails are noisy on shared CI runners, so
#                        the gate catches order-of-magnitude contention
#                        collapses, not scheduling jitter; benchdiff
#                        additionally skips the ceiling when baseline and
#                        candidate recorded different GOMAXPROCS)
#   MIN_REPLICA_SCALING  required replicated-ingest throughput ratio, max
#                        replicas vs 1 replica at the largest agent count
#                        (default 2.5; benchdiff only enforces it when
#                        the run had GOMAXPROCS >= 4)
#   MIN_CLUSTER_THROUGHPUT required cluster scheduler throughput in
#                        jobs/sec (default 50 — a loose wall-clock floor
#                        that catches the scheduling loop going
#                        quadratic, not a runner benchmark)
#   MAX_CLUSTER_P99_REGRESS allowed drift fraction for the cluster
#                        scheduler's per-preset×policy p99 queueing
#                        delay and Jain fairness index (default 0.25 —
#                        simulated-time quantities, deterministic for a
#                        fixed seed, so the gate stays tight)
#   BENCH_BASELINE       analyzer baseline (default BENCH_analyzer.json)
#   ARCHIVE_BASELINE     archive baseline (default BENCH_archive.json)
#   STREAM_BASELINE      stream baseline (default BENCH_stream.json)
#   INGEST_BASELINE      ingest baseline (default BENCH_ingest.json)
#   CLUSTER_BASELINE     cluster baseline (default BENCH_cluster.json)
#
# Run directly or via `BENCH_GATE=1 make check`.
set -euo pipefail

cd "$(dirname "$0")/.."

baseline="${BENCH_BASELINE:-BENCH_analyzer.json}"
archive_baseline="${ARCHIVE_BASELINE:-BENCH_archive.json}"
stream_baseline="${STREAM_BASELINE:-BENCH_stream.json}"
ingest_baseline="${INGEST_BASELINE:-BENCH_ingest.json}"
cluster_baseline="${CLUSTER_BASELINE:-BENCH_cluster.json}"
tolerance="${BENCH_TOLERANCE:-0.25}"
alloc_tolerance="${ALLOC_TOLERANCE:-0.10}"
min_decode="${MIN_DECODE_SPEEDUP:-2}"
min_stream_f1="${MIN_STREAM_F1:-0.9}"
max_share_mape="${MAX_SHARE_MAPE:-0.10}"
max_ingest_p99_regress="${MAX_INGEST_P99_REGRESS:-3.0}"
min_replica_scaling="${MIN_REPLICA_SCALING:-2.5}"
min_cluster_throughput="${MIN_CLUSTER_THROUGHPUT:-50}"
max_cluster_p99_regress="${MAX_CLUSTER_P99_REGRESS:-0.25}"

for b in "$baseline" "$archive_baseline" "$stream_baseline" "$ingest_baseline" "$cluster_baseline"; do
    if [ ! -f "$b" ]; then
        echo "benchdiff.sh: baseline $b not found" >&2
        exit 1
    fi
done

fresh="$(mktemp /tmp/bench_analyzer.XXXXXX.json)"
fresh_archive="$(mktemp /tmp/bench_archive.XXXXXX.json)"
fresh_stream="$(mktemp /tmp/bench_stream.XXXXXX.json)"
fresh_ingest="$(mktemp /tmp/bench_ingest.XXXXXX.json)"
fresh_cluster="$(mktemp /tmp/bench_cluster.XXXXXX.json)"
trap 'rm -f "$fresh" "$fresh_archive" "$fresh_stream" "$fresh_ingest" "$fresh_cluster"' EXIT

echo "== paperbench -analyzer-bench (quick)"
go run ./cmd/paperbench -analyzer-bench "$fresh" -bench-quick

echo "== benchdiff vs $baseline (tolerance ${tolerance})"
go run ./cmd/benchdiff -old "$baseline" -new "$fresh" \
    -tolerance "$tolerance"

echo "== paperbench -archive-bench (quick)"
go run ./cmd/paperbench -archive-bench "$fresh_archive" -bench-quick

# The codec gates: parallel decode must clear MIN_DECODE_SPEEDUP
# (enforced only on >= 4 cores) and no codec entry's allocs/op may grow
# past ALLOC_TOLERANCE.
echo "== benchdiff vs $archive_baseline (tolerance ${tolerance}, decode floor ${min_decode}x)"
go run ./cmd/benchdiff -old "$archive_baseline" -new "$fresh_archive" \
    -tolerance "$tolerance" -alloc-tolerance "$alloc_tolerance" \
    -min-decode-speedup "$min_decode"

echo "== paperbench -stream-bench (quick)"
go run ./cmd/paperbench -stream-bench "$fresh_stream" -bench-quick

# Streaming fidelity gate: the incremental analyzer at duty cycle 1/10
# must keep boundary F1 >= MIN_STREAM_F1 and time-share MAPE <=
# MAX_SHARE_MAPE against the batch OLS reference at the largest n. The
# ns/op comparison against the committed stream baseline uses a loose
# tolerance (quick mode measures fewer iterations); the fidelity floors
# are the gate that matters.
echo "== benchdiff vs $stream_baseline (F1 floor ${min_stream_f1}, MAPE ceiling ${max_share_mape})"
go run ./cmd/benchdiff -old "$stream_baseline" -new "$fresh_stream" \
    -tolerance 1.0 \
    -min-stream-f1 "$min_stream_f1" -max-share-mape "$max_share_mape"

echo "== paperbench -ingest-bench (quick)"
go run ./cmd/paperbench -ingest-bench "$fresh_ingest" -bench-quick

# Sharded-ingest gate: p99 save latency at each agent count both reports
# measured must stay within MAX_INGEST_P99_REGRESS of the baseline.
# Quick mode drops the 256-agent acceptance point, so CI holds the 8-
# and 64-agent points; the full run before committing a new baseline
# covers 256. The generic ns/op comparison is disabled (-tolerance 10)
# for the same reason the p99 ceiling is generous: concurrent save
# latency on a shared runner is noisy, and the per-point p99 ceiling is
# the contract that matters. The replicated sweep adds the horizontal
# floor: with >= 4 cores, ingest over the full replica set must beat
# the single-replica lane by MIN_REPLICA_SCALING.
echo "== benchdiff vs $ingest_baseline (p99 ceiling ${max_ingest_p99_regress}, replica scaling floor ${min_replica_scaling}x)"
go run ./cmd/benchdiff -old "$ingest_baseline" -new "$fresh_ingest" \
    -tolerance 10 \
    -max-ingest-p99-regress "$max_ingest_p99_regress" \
    -min-replica-scaling "$min_replica_scaling"

echo "== paperbench -cluster-bench (quick)"
go run ./cmd/paperbench -cluster-bench "$fresh_cluster" -bench-quick

# Cluster scheduler gate: every preset×policy point must schedule at
# least MIN_CLUSTER_THROUGHPUT jobs/sec of wall clock, and the
# simulated-time fairness surface — worst-tenant p99 queueing delay and
# Jain's index per preset×policy — must stay within
# MAX_CLUSTER_P99_REGRESS of the baseline. Quick mode drops the
# 64-worker fleet acceptance point, so CI holds the contended rush
# preset; the full run before committing a new baseline covers fleet.
# The generic ns/op comparison is disabled (-tolerance 10): throughput
# has its own floor and the fairness numbers are exact.
echo "== benchdiff vs $cluster_baseline (throughput floor ${min_cluster_throughput} jobs/sec, fairness drift ${max_cluster_p99_regress})"
go run ./cmd/benchdiff -old "$cluster_baseline" -new "$fresh_cluster" \
    -tolerance 10 \
    -min-cluster-throughput "$min_cluster_throughput" \
    -max-cluster-p99-regress "$max_cluster_p99_regress"
