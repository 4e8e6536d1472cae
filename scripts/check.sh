#!/usr/bin/env bash
# Full verification gate: build, vet, the race-enabled test suite, the
# paper golden, the -count=N repeats, the by-name test lists, the
# examples and the crash and replicated smokes. This is the one list of
# them: `make check` is `make build fmt` (the gofmt gate) followed by
# this script, and CI runs `make check`. The tpupoint CLI's contract is
# Go tests in cmd/tpupoint, which the race suite below runs.
#
# The vet step filters go vet's "# package" progress headers out of the
# output. Under `set -o pipefail` the naive `go vet | grep -v '^#'`
# breaks both ways: grep exits 1 when vet is clean (everything
# filtered), and without pipefail a real vet failure is masked by the
# filter's exit status. The `{ grep ... || true; }` form keeps the
# filter infallible so the pipeline's status is exactly go vet's;
# scripts/check_selftest.sh proves that against a known-bad fixture.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./... 2>&1 | { grep -v '^#' || true; }

echo "== vet filter selftest"
./scripts/check_selftest.sh

echo "== go test -race ./..."
go test -race ./...

# The paper reproduction's golden: TestPaperGolden skips under the race
# detector (one full paperbench run takes about a minute there), so the
# suite above does not run it. Run it once without -race and fail
# unless it passed: a skip or a rename fails the gate.
echo "== paper golden (go test -run '^TestPaperGolden\$' ./cmd/paperbench)"
out="$(go test -count=1 -run '^TestPaperGolden$' -v ./cmd/paperbench)" || { echo "$out"; exit 1; }
grep -- '--- PASS: TestPaperGolden' <<<"$out" || { echo "$out"; echo "TestPaperGolden did not pass"; exit 1; }

# The obs instruments are lock-free by design; hammer them a second time
# under the race detector so a future regression to unsynchronized state
# cannot hide behind a lucky schedule.
echo "== go test -race -count=2 ./internal/obs"
go test -race -count=2 ./internal/obs

# The live profiler polls while training runs, so its windows depend on
# the schedule; the watermark must make every schedule ship every event
# exactly once. Repeat the concurrent-profiling test under the race
# detector, where schedules vary most.
echo "== go test -race -count=200 -run 'TestProfilerWhileTrainingRuns\$' ./internal/core/profiler"
go test -race -count=200 -run 'TestProfilerWhileTrainingRuns$' ./internal/core/profiler

# The parallel codec must stay bit-identical to the serial path and the
# two pooled things in the record codec race-clean — the encoder's
# scratch buffers and the decoder's state (the operator-name table and
# the name cache in front of it, which every record a decode borrows it
# for shares strings from): run the archive differential tests and the
# trace wire/pool tests twice under the race detector so chunk-boundary
# or pool-reuse regressions (the second pass decodes with state the first
# one filled) can't hide behind one lucky schedule.
echo "== go test -race -count=2 ./internal/archive ./internal/trace"
go test -race -count=2 ./internal/archive ./internal/trace

# A fleet session keeps two structures only its drain goroutine may touch
# until finalize takes them — the streaming analyzer and the running step
# aggregate — and a resume must rebuild both from the log: run the
# finalize and resume tests twice under the race detector.
echo "== go test -race -count=2 ./internal/repo -run 'Finalize|Resume'"
go test -race -count=2 ./internal/repo -run 'Finalize|Resume'

# Crash-consistency gate: the power-cut property tests, the DirStore
# append contract and fleet resume tests under -race, by name, and the
# recovery-counter wiring smoke.
echo "== crash smoke"
./scripts/crash_smoke.sh

# The streaming analyzer's chunk/duty determinism contract and the
# shared analyzer front-end's once-only feature/PCA build must hold
# under the race detector; run the packages twice so a
# scheduling-dependent divergence can't hide.
echo "== go test -race -count=2 ./internal/core/analyzer ./internal/core/cluster"
go test -race -count=2 ./internal/core/analyzer ./internal/core/cluster

# The phase-study example (k-means vs DBSCAN vs OLS on BERT's four
# datasets) must run and print a phase row for each of the three
# algorithms. The quickstart example (README's Figure 2 walk-through)
# must run and print its OLS phase line and at least one TPU top-op row.
# The fleet-compare example (two runs profiled live into a collector,
# finalized, and their archived summaries diffed) must run, archive both
# runs and print at least one diff-table row. The remote-profiler example
# (a profiler attached over TCP to a training run's profile service) must
# exit 0 and print how many records it profiled and how many phases they
# hold. The autotune example (TPUPoint-Optimizer tuning a naive QANet
# pipeline) must exit 0, print its speedup line and keep at least one
# parameter move. Each assignment stands alone, not before `&&`:
# under `set -e` a failure inside an `&&` list does not stop the script.
echo "== phasestudy, quickstart, fleetcompare, remoteprofiler and autotune examples"
out="$(go run ./examples/phasestudy)"; for algo in kmeans dbscan ols; do grep -Eq "^[^ ]+ +$algo +[0-9]+ " <<<"$out" || { echo "$out"; echo "phasestudy printed no $algo row"; exit 1; }; done
out="$(go run ./examples/quickstart)" || exit; for want in '^OLS at the default 70% threshold found ' '^ +\[tpu\] '; do grep -Eq "$want" <<<"$out" || { echo "$out"; echo "quickstart printed no line matching '$want'"; exit 1; }; done
out="$(go run ./examples/fleetcompare)"; for want in '^archived dcgan-v2:' '^archived dcgan-v3:' ' 2 runs saved$' '^#[0-9]+ +#[0-9]+ '; do grep -Eq "$want" <<<"$out" || { echo "$out"; echo "fleetcompare printed no line matching '$want'"; exit 1; }; done
out="$(go run ./examples/remoteprofiler)" || exit; for want in '^profiled [0-9]+ records' '^phases: [0-9]+'; do grep -Eq "$want" <<<"$out" || { echo "$out"; echo "remoteprofiler printed no line matching '$want'"; exit 1; }; done
out="$(go run ./examples/autotune)" || exit; for want in '^speedup: +[0-9.]+x' '^ +[A-Za-z]+ +[0-9]+ -> +[0-9]+ .* kept$'; do grep -Eq "$want" <<<"$out" || { echo "$out"; echo "autotune printed no line matching '$want'"; exit 1; }; done

# The CLI runs on a live DirStore: its tests take the store's flock
# from several handles and a collector goroutine over real files, and
# drive real workloads through archive, diff, watch, sharded ingest,
# compaction, salvage and -metrics, so run them twice under the race
# detector as well.
echo "== go test -race -count=2 ./cmd/tpupoint"
go test -race -count=2 ./cmd/tpupoint

# Sharded-ingest gate: the contention and compaction suites under
# -race, by name, so a renamed test fails the gate instead of silently
# running nothing. The footer-only diff suites (same diff as the full
# read, footers only, footer CRC checked, segments not read) and fsck's
# field-naming detail ride along.
echo "== sharded contention + compaction + footer diff under -race"
./scripts/named_tests.sh ./internal/repo TestShardedContentionZeroLoss64 TestCompactMergesAndPreservesReads TestDeletePackedRunRefcountsPack \
	TestCompareReadsOnlyFooters TestCompareChecksFooterNotSegments TestCompareOlderEntryReadsWholeArchive \
	TestSummaryFooterOutsideEntry TestFsckMismatchNamesFields TestFsckFillsOlderEntryFooterFields

# Replicated-collection gate: the replica placement/failover/lease
# suites under -race, then two real collector replica processes over
# one shared on-disk store with 64 streaming agents, a kill -9 plus
# restart of one replica mid-fleet, and an offline list/fsck audit
# proving zero record loss.
echo "== replicated smoke"
./scripts/replicated_smoke.sh

echo "check: OK"
