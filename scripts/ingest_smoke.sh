#!/usr/bin/env bash
# Sharded-ingest smoke: the contention and compaction suites under the
# race detector, then a CLI round trip over a real on-disk repository —
# archive runs into a fresh four-shard repository (-shards 4), compact
# the small archives into a pack, and prove every verb still reads the
# packed, sharded repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== sharded contention + compaction under -race"
./scripts/named_tests.sh ./internal/repo \
    TestShardedContentionZeroLoss64 TestCompactMergesAndPreservesReads TestDeletePackedRunRefcountsPack

workdir="$(mktemp -d /tmp/ingest_smoke.XXXXXX)"
trap 'rm -rf "$workdir"' EXIT
repodir="$workdir/runs"

bin="$workdir/tpupoint"
go build -o "$bin" ./cmd/tpupoint

echo "== archiving three runs into a fresh repository (-shards 4)"
for i in 1 2 3; do
    "$bin" -workload dcgan-mnist -steps 60 -archive "$repodir" -shards 4 \
        -run-id "smoke-$i" -label smoke >/dev/null
done
if ! grep -q '"shards":4' "$repodir/runs/.layout" || ! ls "$repodir"/runs/manifest-*.json >/dev/null; then
    echo "ingest_smoke.sh: no four-shard layout on disk" >&2
    exit 1
fi

echo "== runs list / fsck over the sharded repository"
list="$("$bin" -archive "$repodir" runs list)"
echo "$list"
for i in 1 2 3; do
    echo "$list" | grep -q "smoke-$i"
done
"$bin" -archive "$repodir" runs fsck >/dev/null

echo "== runs compact"
compact_out="$("$bin" -archive "$repodir" runs compact)"
echo "$compact_out"
echo "$compact_out" | grep -q '^packed '
ls "$repodir"/runs/.pack/ | grep -q .

echo "== packed runs still read back"
show_out="$("$bin" -archive "$repodir" runs show smoke-2)"
echo "$show_out" | grep -q 'records:'
"$bin" -archive "$repodir" runs fsck >/dev/null

echo "ingest smoke: OK"
