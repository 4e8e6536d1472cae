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
#
# The CLI's torn-blob round trip (fsck flags it, salvage recovers it,
# the run still opens) is TestRunsSalvageRoundTrip in cmd/tpupoint.
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

echo "crash smoke: OK"
