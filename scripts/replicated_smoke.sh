#!/usr/bin/env bash
# Replicated-collection smoke: the replica failover suite under the
# race detector, then a real multi-process fleet — two collector
# replicas over one shared on-disk store, 64 agents streaming through
# the endpoint-set client (placement redirects included), a kill -9 and
# restart of one replica mid-fleet, and an offline list/fsck proving
# every record every agent sent was durably archived. Every agent's
# sent count is checked against the server's finalize ack, so a lost
# record fails the smoke at the agent that lost it, not just at the
# final tally.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== replica placement + failover + lease suites under -race"
./scripts/named_tests.sh ./internal/repo \
    TestReplicaEndpointSetFollowsRedirect TestReplicaKillFailoverExactlyOnce TestReplicaRecoverSessionsAdoptsOwnedOnly TestLeaseExpirySweepVsConcurrentResume

workdir="$(mktemp -d /tmp/replicated_smoke.XXXXXX)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT
repodir="$workdir/runs"

bin="$workdir/tpupoint"
go build -o "$bin" ./cmd/tpupoint

# Ports derived from the PID keep parallel CI jobs off each other; the
# banner grep below catches a bind failure either way.
port0=$((20000 + (($$ % 20000))))
port1=$((port0 + 1))
ep0="127.0.0.1:$port0"
ep1="127.0.0.1:$port1"
peers="$ep0,$ep1"

start_replica() { # id port logfile -> pid on stdout
    "$bin" -collect-serve "127.0.0.1:$2" -archive "$repodir" \
        -replicas 2 -replica-id "$1" -peers "$peers" >"$3" 2>&1 &
    echo $!
}

wait_ready() { # logfile
    for _ in $(seq 1 100); do
        if grep -q 'fleet collection server on' "$1" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "replicated_smoke.sh: replica never came up; log:" >&2
    cat "$1" >&2
    return 1
}

total_sent=0
run_agent() { # run-id
    local out sent acked
    out="$("$bin" -workload bert-squad -steps 4 -collect "$peers" -run-id "$1")"
    sent="$(sed -n 's/.*(\([0-9][0-9]*\) records)$/\1/p' <<<"$out" | head -n 1)"
    acked="$(sed -n 's/^archived:.*): \([0-9][0-9]*\) records.*/\1/p' <<<"$out")"
    if [ -z "$sent" ] || [ "$sent" != "${acked:-}" ]; then
        echo "replicated_smoke.sh: agent $1 sent ${sent:-?} records, server acked ${acked:-?}" >&2
        echo "$out" >&2
        exit 1
    fi
    total_sent=$((total_sent + sent))
}

echo "== starting 2 collector replicas over one shared store"
pid0="$(start_replica 0 "$port0" "$workdir/rep0.log")"
pids+=("$pid0")
pid1="$(start_replica 1 "$port1" "$workdir/rep1.log")"
pids+=("$pid1")
wait_ready "$workdir/rep0.log"
wait_ready "$workdir/rep1.log"

echo "== first wave: 32 agents across both endpoints"
for i in $(seq -w 1 32); do
    run_agent "agent-$i"
done

echo "== kill -9 replica 1, restart it against the same store"
kill -9 "$pid1"
wait "$pid1" 2>/dev/null || true
pid1="$(start_replica 1 "$port1" "$workdir/rep1b.log")"
pids+=("$pid1")
wait_ready "$workdir/rep1b.log"

echo "== second wave: 32 agents through the recovered fleet"
for i in $(seq -w 33 64); do
    run_agent "agent-$i"
done

echo "== graceful shutdown of both replicas"
kill "$pid0" "$pid1"
wait "$pid0" 2>/dev/null || true
wait "$pid1" 2>/dev/null || true
pids=()

echo "== offline list + fsck over the shared store"
list="$("$bin" -archive "$repodir" runs list)"
runs_listed="$(echo "$list" | tail -n +2 | grep -c '^agent-')"
records_listed="$(echo "$list" | tail -n +2 | awk '{s += $(NF-2)} END {print s}')"
if [ "$runs_listed" -ne 64 ]; then
    echo "replicated_smoke.sh: 64 agents archived but $runs_listed runs listed" >&2
    echo "$list" >&2
    exit 1
fi
if [ "$records_listed" -ne "$total_sent" ]; then
    echo "replicated_smoke.sh: agents sent $total_sent records but $records_listed listed" >&2
    echo "$list" >&2
    exit 1
fi
fsck_out="$("$bin" -archive "$repodir" runs fsck)"
echo "$fsck_out"
echo "$fsck_out" | grep -q 'no issues'

echo "replicated smoke: OK (64 runs, $total_sent records, zero loss across kill -9)"
