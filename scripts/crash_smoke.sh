#!/usr/bin/env bash
# Crash-consistency smoke: the durability stack end to end.
#
#   1. The power-cut property tests under the race detector — the
#      scripted Save/fleet/Finalize/GC workload, and the damage/salvage/
#      fsck -repair one, each killed at every write boundary (clean and
#      torn), recovered, and fsck'd.
#   2. The DirStore contract tests the session log stands on: appends
#      in place, generations interleaving with CAS, rollback of a failed
#      append, and the tallied generation sidecar — under the race
#      detector, each by name.
#   3. The fleet durable-session tests (resume, eviction, torn-tail trim,
#      lease-vs-finalize, a retried profiler Put retained once) under the
#      race detector.
#   4. crashcheck — the in-process wiring smoke that asserts every
#      recovery path moves its observability counter
#      (repo.recover.reclaimed, repo.salvage.segments.recovered,
#      repo.fsck.issues/repairs, fleet.sessions.resumed) and that
#      records.in == records.archived across a collector restart.
#   5. A CLI round trip: archive a real run, corrupt the blob's tail,
#      prove `runs fsck` flags it, `runs salvage` recovers it, and the
#      repaired run still opens.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== power-cut property tests (-race)"
./scripts/named_tests.sh ./internal/repo \
    TestPowerCutAtEveryWriteBoundary TestPowerCutAtEveryRepairWriteBoundary

echo "== DirStore append and generation contract tests (-race)"
./scripts/named_tests.sh ./internal/storage \
    TestDirStoreAppend TestDirStoreAppendInterleavesWithCAS TestDirStoreFailedAppendRollsBack \
    TestDirStoreRepeatedFailedCreateLeavesNothing TestDirStoreAppendConvertsCompactSidecar \
    TestDirStoreAppendAdoptsFileWithoutSidecar TestDirStorePutAfterTallyWritesCompactForm \
    TestDirStoreAppendCostIndependentOfTally

echo "== fleet durable-session tests (-race)"
./scripts/named_tests.sh ./internal/repo \
    TestFleetResume TestFleetRecoverSessions TestFleetFinalizeBeatsLeaseExpiry TestFleetDurableAppendFailure TestSessionToken \
    TestResilientPutRetryRetainsOnce

echo "== crashcheck (recovery counters)"
go run ./scripts/crashcheck

workdir="$(mktemp -d /tmp/crash_smoke.XXXXXX)"
trap 'rm -rf "$workdir"' EXIT
repodir="$workdir/runs"

bin="$workdir/tpupoint"
go build -o "$bin" ./cmd/tpupoint

echo "== archiving a run, then tearing its blob"
"$bin" -workload dcgan-mnist -steps 60 -archive "$repodir" -run-id crash-v2 -label crash >/dev/null
blob="$repodir/runs/crash-v2/archive"
[ -f "$blob" ]
size="$(wc -c < "$blob")"
truncate -s "$((size - 16))" "$blob"

# grep -q exits at the first match, which would SIGPIPE the writer
# under pipefail — capture to variables instead of piping.
echo "== runs fsck must flag the torn blob"
if fsck_out="$("$bin" -archive "$repodir" runs fsck 2>&1)"; then
    echo "$fsck_out"
    echo "fsck passed on a corrupted repository" >&2
    exit 1
fi
echo "$fsck_out" | grep -q 'crash-v2'

echo "== runs salvage crash-v2"
salvage_out="$("$bin" -archive "$repodir" runs salvage crash-v2)"
echo "$salvage_out"
echo "$salvage_out" | grep -q 'segments'

echo "== runs fsck must now be clean"
"$bin" -archive "$repodir" runs fsck

# The salvaged archive keeps its records but drops the embedded summary
# (it lived in the torn-off footer), so assert on the record line, not
# the phase table.
echo "== runs show still opens the salvaged run"
show_out="$("$bin" -archive "$repodir" runs show crash-v2)"
echo "$show_out" | grep -q 'records:'

echo "crash smoke: OK"
