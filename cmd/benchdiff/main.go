// Command benchdiff compares two benchmark reports (the
// BENCH_analyzer.json / BENCH_archive.json documents that `paperbench
// -analyzer-bench` / `-archive-bench` emit) and fails when the new run
// regresses past a tolerance.
//
// Entries are matched by (kernel, mode, n); configurations present in
// only one report are ignored. Entries that report allocs/op (the codec
// kernels) are additionally held to -alloc-tolerance: allocation counts
// are near-deterministic, so a regression there is a real code change,
// not noise. Beyond per-entry comparisons, the tool asserts the
// structural wins the optimizations exist for:
//
//   - -min-decode-speedup: the largest-n "archive_decode_par_vs_serial"
//     speedup (archive reports). Enforced only when the candidate
//     report ran with GOMAXPROCS >= 4 — on fewer cores the parallel
//     decode degenerates to near-serial and the floor is meaningless.
//   - -min-stream-f1 / -max-share-mape: the largest-n
//     "stream_boundary_f1_duty10" / "stream_share_mape_duty10" fidelity
//     scores (stream reports) — how faithfully the duty-cycled
//     streaming analyzer reproduces the batch analyzer's phase report.
//     Deterministic, so any drift is a real code change.
//   - -max-ingest-p99-regress: per-agent-count p99 save latency of the
//     sharded ingest repository (ingest reports), held relative to the
//     baseline's latency at the same agent count rather than to an
//     absolute floor, so a contention regression at 256 agents cannot
//     hide behind a healthy small-scale number. Latency is a property
//     of the runner, so the gate only holds when both reports recorded
//     the same GOMAXPROCS — a baseline from a different machine class
//     is noise, not a contract.
//   - -min-replica-scaling: the largest-agent-count
//     "ingest_replica_scaling" ratio (ingest reports) — replicated
//     ingest throughput at the deepest replica sweep point over the
//     single-replica baseline. Like -min-decode-speedup it is enforced
//     only when the candidate ran with GOMAXPROCS >= 4: replica lanes
//     scale with cores, and on fewer the ratio degenerates to ~1x.
//   - -min-cluster-throughput: wall-clock scheduler throughput (jobs
//     scheduled per second) of every cluster_schedule entry (cluster
//     reports). An absolute floor, kept loose: it exists to catch the
//     scheduling loop going accidentally quadratic, not to measure the
//     runner.
//   - -max-cluster-p99-regress: per-preset×policy worst-tenant p99
//     queueing delay (cluster_p99_wait_us_*) held relative to the
//     baseline, and Jain's fairness index (cluster_jain_*) held to the
//     same fraction in the other direction. Both are simulated-time
//     quantities — deterministic for a fixed seed — so the tolerance
//     can be tight; drift means the scheduler changed behavior.
//
// Usage:
//
//	benchdiff -old BENCH_analyzer.json -new /tmp/bench.json
//	benchdiff -old BENCH_archive.json -new head.json -min-decode-speedup 2
//	benchdiff -old BENCH_stream.json -new head.json \
//	    -min-stream-f1 0.9 -max-share-mape 0.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		oldPath   = flag.String("old", "BENCH_analyzer.json", "baseline report (committed)")
		newPath   = flag.String("new", "", "candidate report (freshly generated)")
		tolerance = flag.Float64("tolerance", 0.15, "allowed ns/op regression fraction per entry")
		allocTol  = flag.Float64("alloc-tolerance", 0.10, "allowed allocs/op regression fraction per entry, for entries both reports measured")
		minDecode = flag.Float64("min-decode-speedup", 0, "required archive parallel-decode speedup at the largest measured n; only enforced when the candidate ran with GOMAXPROCS >= 4 (0 disables)")
		minF1     = flag.Float64("min-stream-f1", 0, "required streaming phase-boundary F1 vs the batch analyzer at duty cycle 1/10, largest measured n (0 disables)")
		maxMAPE   = flag.Float64("max-share-mape", 0, "allowed streaming per-phase time-share MAPE vs the batch analyzer at duty cycle 1/10, largest measured n (0 disables)")
		maxP99    = flag.Float64("max-ingest-p99-regress", 0, "allowed p99 save-latency regression fraction per ingest agent count, old vs new; only enforced when both reports recorded the same GOMAXPROCS (0 disables)")
		minScale  = flag.Float64("min-replica-scaling", 0, "required replicated-ingest throughput ratio (max replicas vs 1 replica) at the largest measured agent count; only enforced when the candidate ran with GOMAXPROCS >= 4 (0 disables)")
		minSched  = flag.Float64("min-cluster-throughput", 0, "required wall-clock scheduler throughput in jobs/sec for every cluster_schedule entry (0 disables)")
		maxWait   = flag.Float64("max-cluster-p99-regress", 0, "allowed regression fraction for per-preset×policy cluster p99 queueing delay and Jain fairness, old vs new (0 disables)")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: missing -new report")
		os.Exit(2)
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	failures := compare(oldRep, newRep, *tolerance, *allocTol)
	failures = append(failures, checkDecodeSpeedup(newRep, *minDecode)...)
	failures = append(failures, checkStreamFidelity(newRep, *minF1, *maxMAPE)...)
	failures = append(failures, checkIngestLatency(oldRep, newRep, *maxP99)...)
	failures = append(failures, checkReplicaScaling(newRep, *minScale)...)
	failures = append(failures, checkClusterThroughput(newRep, *minSched)...)
	failures = append(failures, checkClusterFairness(oldRep, newRep, *maxWait)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}

func load(path string) (*experiments.AnalyzerBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.AnalyzerBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Entries) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries", path)
	}
	return &rep, nil
}

type entryKey struct {
	kernel, mode string
	n            int
}

func index(rep *experiments.AnalyzerBenchReport) map[entryKey]experiments.AnalyzerBenchEntry {
	m := make(map[entryKey]experiments.AnalyzerBenchEntry, len(rep.Entries))
	for _, e := range rep.Entries {
		m[entryKey{e.Kernel, e.Mode, e.N}] = e
	}
	return m
}

// allocSlack is the absolute allocs/op play the alloc comparison grants
// on top of the relative tolerance, so near-zero counts (the pooled
// encoder's steady state) don't fail on a one-allocation wobble.
const allocSlack = 16

// compare prints a ratio table for every shared configuration and
// returns one failure per entry whose ns/op grew past the tolerance, or
// whose allocs/op grew past allocTol when both reports measured it.
func compare(oldRep, newRep *experiments.AnalyzerBenchReport, tolerance, allocTol float64) []string {
	oldIdx := index(oldRep)
	keys := make([]entryKey, 0, len(newRep.Entries))
	newIdx := index(newRep)
	for k := range newIdx {
		if _, ok := oldIdx[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.n != b.n {
			return a.n < b.n
		}
		if a.kernel != b.kernel {
			return a.kernel < b.kernel
		}
		return a.mode < b.mode
	})
	if len(keys) == 0 {
		return []string{"no overlapping entries between the two reports"}
	}

	var failures []string
	fmt.Printf("%-18s %-10s %8s %14s %14s %8s %12s %12s\n",
		"kernel", "mode", "n", "old ns/op", "new ns/op", "ratio", "old allocs", "new allocs")
	for _, k := range keys {
		o, n := oldIdx[k], newIdx[k]
		ratio := n.NsPerOp / o.NsPerOp
		mark := ""
		if ratio > 1+tolerance {
			mark = "  << REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s/%s n=%d regressed %.1f%% (old %.0f ns/op, new %.0f ns/op, tolerance %.0f%%)",
				k.kernel, k.mode, k.n, 100*(ratio-1), o.NsPerOp, n.NsPerOp, 100*tolerance))
		}
		oldAllocs, newAllocs := "-", "-"
		if o.AllocsPerOp > 0 {
			oldAllocs = fmt.Sprintf("%.0f", o.AllocsPerOp)
		}
		if n.AllocsPerOp > 0 {
			newAllocs = fmt.Sprintf("%.0f", n.AllocsPerOp)
		}
		// Allocation counts are compared only where the baseline has them
		// (older baselines predate allocs/op) and with an absolute slack,
		// since a report's count is a near-exact property of the code.
		if o.AllocsPerOp > 0 && n.AllocsPerOp > o.AllocsPerOp*(1+allocTol)+allocSlack {
			mark = "  << ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s/%s n=%d allocs/op regressed %.1f%% (old %.0f, new %.0f, tolerance %.0f%% + %d)",
				k.kernel, k.mode, k.n, 100*(n.AllocsPerOp/o.AllocsPerOp-1),
				o.AllocsPerOp, n.AllocsPerOp, 100*allocTol, allocSlack))
		}
		fmt.Printf("%-18s %-10s %8d %14.0f %14.0f %7.2fx %12s %12s%s\n",
			k.kernel, k.mode, k.n, o.NsPerOp, n.NsPerOp, ratio, oldAllocs, newAllocs, mark)
	}
	return failures
}

// checkDecodeSpeedup asserts the structural win the parallel archive
// codec exists for: at the largest measured n, parallel decode must beat
// one-worker decode by the floor. The two paths are bit-identical by
// construction (internal/archive's differential tests), so this is a
// pure throughput gate — and it only means something when there are
// cores to fan out to, hence the GOMAXPROCS >= 4 condition.
func checkDecodeSpeedup(rep *experiments.AnalyzerBenchReport, minSpeedup float64) []string {
	if minSpeedup <= 0 {
		return nil
	}
	if rep.GOMAXPROCS < 4 {
		fmt.Printf("archive decode speedup floor skipped: candidate ran with GOMAXPROCS=%d (< 4)\n", rep.GOMAXPROCS)
		return nil
	}
	bestN, speedup := largestN(rep, "archive_decode_par_vs_serial_n")
	if bestN < 0 {
		return []string{"candidate report has no archive_decode_par_vs_serial speedup"}
	}
	fmt.Printf("archive decode parallel vs serial at n=%d: %.2fx (floor %.2fx)\n", bestN, speedup, minSpeedup)
	if speedup < minSpeedup {
		return []string{fmt.Sprintf(
			"archive parallel-decode speedup at n=%d is %.2fx, below the %.2fx floor",
			bestN, speedup, minSpeedup)}
	}
	return nil
}

// checkStreamFidelity asserts the streaming analyzer's fidelity floors
// at the hard setting — duty cycle 1/10 — and the largest measured n:
// phase-boundary F1 must stay at or above minF1 and the per-phase
// time-share MAPE at or below maxMAPE. Both scores are deterministic
// functions of the record stream, so unlike the timing gates there is
// no noise allowance; drift means the analyzer changed behavior.
func checkStreamFidelity(rep *experiments.AnalyzerBenchReport, minF1, maxMAPE float64) []string {
	var failures []string
	if minF1 > 0 {
		bestN, f1 := largestN(rep, "stream_boundary_f1_duty10_n")
		if bestN < 0 {
			failures = append(failures, "candidate report has no stream_boundary_f1_duty10 score")
		} else {
			fmt.Printf("stream boundary F1 at duty 1/10, n=%d: %.3f (floor %.3f)\n", bestN, f1, minF1)
			if f1 < minF1 {
				failures = append(failures, fmt.Sprintf(
					"streaming boundary F1 at duty 1/10, n=%d is %.3f, below the %.3f floor",
					bestN, f1, minF1))
			}
		}
	}
	if maxMAPE > 0 {
		bestN, mape := largestN(rep, "stream_share_mape_duty10_n")
		if bestN < 0 {
			failures = append(failures, "candidate report has no stream_share_mape_duty10 score")
		} else {
			fmt.Printf("stream time-share MAPE at duty 1/10, n=%d: %.2f%% (ceiling %.2f%%)\n",
				bestN, 100*mape, 100*maxMAPE)
			if mape > maxMAPE {
				failures = append(failures, fmt.Sprintf(
					"streaming time-share MAPE at duty 1/10, n=%d is %.2f%%, above the %.2f%% ceiling",
					bestN, 100*mape, 100*maxMAPE))
			}
		}
	}
	return failures
}

// checkIngestLatency holds the candidate's p99 save latency at each
// agent count the baseline measured to within maxRegress of the
// baseline's. Unlike the floor gates this is a relative comparison —
// absolute latency depends on the runner — and it is keyed per sweep
// point: a regression that only shows at 256 agents (the contention
// regime the sharded repository exists for) must not hide behind a
// healthy 8-agent number. Quick-mode candidates drop the largest point,
// so only agent counts both reports measured are held; having none in
// common is itself a failure. The report also tracks manifest-CAS
// retries per point (ingest_cas_retries_*) — those are diagnostic, not
// gated, since absorbed retries are the design working as intended.
func checkIngestLatency(oldRep, newRep *experiments.AnalyzerBenchReport, maxRegress float64) []string {
	if maxRegress <= 0 {
		return nil
	}
	// Latency ceilings only transfer between same-shaped runners: a
	// baseline recorded on a different core count measures a different
	// contention regime (mirrors the -min-decode-speedup core guard).
	if oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Printf("ingest p99 ceilings skipped: baseline GOMAXPROCS=%d, candidate GOMAXPROCS=%d\n",
			oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
		return nil
	}
	const prefix = "ingest_p99_us_agents"
	var agentCounts []int
	for key := range oldRep.Speedups {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if n, err := strconv.Atoi(key[len(prefix):]); err == nil {
			agentCounts = append(agentCounts, n)
		}
	}
	if len(agentCounts) == 0 {
		return []string{"baseline report has no ingest_p99_us entries to hold the candidate to"}
	}
	sort.Ints(agentCounts)

	var failures []string
	compared := 0
	for _, agents := range agentCounts {
		key := fmt.Sprintf("%s%d", prefix, agents)
		oldP99 := oldRep.Speedups[key]
		newP99, ok := newRep.Speedups[key]
		if !ok {
			continue
		}
		compared++
		fmt.Printf("ingest p99 at %d agents: old %.0fµs, new %.0fµs (ceiling %.2fx)\n",
			agents, oldP99, newP99, 1+maxRegress)
		if oldP99 > 0 && newP99 > oldP99*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf(
				"ingest p99 at %d agents regressed %.0f%% (old %.0fµs, new %.0fµs, ceiling %.0f%%)",
				agents, 100*(newP99/oldP99-1), oldP99, newP99, 100*maxRegress))
		}
	}
	if compared == 0 {
		failures = append(failures, "candidate report shares no ingest agent counts with the baseline")
	}
	return failures
}

// checkReplicaScaling asserts the structural win replicated collection
// exists for: at the largest measured agent count, ingest throughput
// with the full replica set must beat the single-replica lane by the
// floor. The replicated bench routes every run to its owning lane the
// way a placement-aware fleet does, so the ratio isolates the
// horizontal knob — and like parallel decode it only means something
// with cores to fan the lanes across, hence the GOMAXPROCS >= 4 guard.
func checkReplicaScaling(rep *experiments.AnalyzerBenchReport, minScale float64) []string {
	if minScale <= 0 {
		return nil
	}
	if rep.GOMAXPROCS < 4 {
		fmt.Printf("replica scaling floor skipped: candidate ran with GOMAXPROCS=%d (< 4)\n", rep.GOMAXPROCS)
		return nil
	}
	bestN, scale := largestN(rep, "ingest_replica_scaling_agents")
	if bestN < 0 {
		return []string{"candidate report has no ingest_replica_scaling ratio"}
	}
	fmt.Printf("replicated ingest scaling at %d agents: %.2fx (floor %.2fx)\n", bestN, scale, minScale)
	if scale < minScale {
		return []string{fmt.Sprintf(
			"replicated ingest scaling at %d agents is %.2fx, below the %.2fx floor",
			bestN, scale, minScale)}
	}
	return nil
}

// checkClusterThroughput holds every cluster_schedule entry's wall-clock
// scheduler throughput (jobs scheduled per second, pipeline prep
// amortized in) above an absolute floor. The floor is meant to be loose
// — it catches the scheduling loop going accidentally quadratic in jobs
// or workers, not runner speed.
func checkClusterThroughput(rep *experiments.AnalyzerBenchReport, minJobsPerSec float64) []string {
	if minJobsPerSec <= 0 {
		return nil
	}
	var failures []string
	seen := false
	for _, e := range rep.Entries {
		if e.Kernel != "cluster_schedule" {
			continue
		}
		seen = true
		fmt.Printf("cluster scheduler throughput %s (n=%d, %d workers): %.0f jobs/sec (floor %.0f)\n",
			e.Mode, e.N, e.Workers, e.StepsPerSec, minJobsPerSec)
		if e.StepsPerSec < minJobsPerSec {
			failures = append(failures, fmt.Sprintf(
				"cluster scheduler throughput %s is %.0f jobs/sec, below the %.0f floor",
				e.Mode, e.StepsPerSec, minJobsPerSec))
		}
	}
	if !seen {
		failures = append(failures, "candidate report has no cluster_schedule entries")
	}
	return failures
}

// checkClusterFairness holds the candidate's worst-tenant p99 queueing
// delay (cluster_p99_wait_us_<preset>_<policy>) at each preset×policy
// the baseline measured to within maxRegress of the baseline's, and
// Jain's fairness index (cluster_jain_*) to the same fraction in the
// other direction. Both are simulated-time quantities, deterministic
// for a fixed seed, so unlike the ingest latency gate the tolerance can
// be tight; any drift is a scheduler behavior change, not runner noise.
// Quick-mode candidates drop the fleet preset, so only modes both
// reports measured are held; having none in common is itself a failure.
func checkClusterFairness(oldRep, newRep *experiments.AnalyzerBenchReport, maxRegress float64) []string {
	if maxRegress <= 0 {
		return nil
	}
	const waitPrefix = "cluster_p99_wait_us_"
	const jainPrefix = "cluster_jain_"
	var modes []string
	for key := range oldRep.Speedups {
		if strings.HasPrefix(key, waitPrefix) {
			modes = append(modes, key[len(waitPrefix):])
		}
	}
	if len(modes) == 0 {
		return []string{"baseline report has no cluster_p99_wait_us entries to hold the candidate to"}
	}
	sort.Strings(modes)

	var failures []string
	compared := 0
	for _, mode := range modes {
		oldWait := oldRep.Speedups[waitPrefix+mode]
		newWait, ok := newRep.Speedups[waitPrefix+mode]
		if !ok {
			continue
		}
		compared++
		fmt.Printf("cluster p99 wait %s: old %.0fµs, new %.0fµs (ceiling %.2fx)\n",
			mode, oldWait, newWait, 1+maxRegress)
		if oldWait > 0 && newWait > oldWait*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf(
				"cluster p99 queueing delay %s regressed %.0f%% (old %.0fµs, new %.0fµs, ceiling %.0f%%)",
				mode, 100*(newWait/oldWait-1), oldWait, newWait, 100*maxRegress))
		}
		oldJain, okOld := oldRep.Speedups[jainPrefix+mode]
		newJain, okNew := newRep.Speedups[jainPrefix+mode]
		if okOld && okNew {
			fmt.Printf("cluster Jain index %s: old %.3f, new %.3f (floor %.2fx)\n",
				mode, oldJain, newJain, 1-maxRegress)
			if oldJain > 0 && newJain < oldJain*(1-maxRegress) {
				failures = append(failures, fmt.Sprintf(
					"cluster Jain fairness %s dropped %.0f%% (old %.3f, new %.3f, floor %.0f%%)",
					mode, 100*(1-newJain/oldJain), oldJain, newJain, 100*(1-maxRegress)))
			}
		}
	}
	if compared == 0 {
		failures = append(failures, "candidate report shares no cluster preset×policy modes with the baseline")
	}
	return failures
}

// largestN returns the value of the prefix-keyed speedup with the
// biggest n suffix, or (-1, 0) when the report has none. Quick-mode
// reports can skip expensive configurations, so gates always read the
// biggest n the report actually measured.
func largestN(rep *experiments.AnalyzerBenchReport, prefix string) (int, float64) {
	bestN, v := -1, 0.0
	for key, s := range rep.Speedups {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		n, err := strconv.Atoi(key[len(prefix):])
		if err != nil {
			continue
		}
		if n > bestN {
			bestN, v = n, s
		}
	}
	return bestN, v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
