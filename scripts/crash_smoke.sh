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
#      lease-vs-finalize, a retried profiler Put retained once, a batch
#      resent after a lost answer or racing its timed-out original
#      archived once, a full queue waiting for the drain) and the
#      recovery-counter wiring test (every recovery path moves its
#      observability counter — repo.recover.reclaimed,
#      repo.salvage.segments.recovered, repo.fsck.issues/repairs,
#      fleet.sessions.resumed — and records.in == records.archived
#      across a collector restart) under the race detector.
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
    TestResilientPutRetryRetainsOnce TestAppendBatchLostReplyArchivedOnce \
    TestAppendRetryRacingOriginalArchivedOnce TestFullQueueWaitsForDrain \
    TestRecoveryPathsMoveTheirCounters

echo "crash smoke: OK"
