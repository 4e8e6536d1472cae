package analyzer

// Phase-membership stability, SeqPoint's standard: a clustering choice is
// worth reporting only if it is stable under resampling. The adjusted Rand
// index (ARI) compares two labelings of the same steps: 1 is identical
// membership up to renaming, 0 is the agreement expected by chance.

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/tpu"
)

var stabilityReport = flag.Bool("stability-report", false,
	"run TestPhaseStabilityReport: print the ARI of k-means and DBSCAN phase membership across seeds 1..10, TPU generations and against OLS")

// adjustedRandIndex is the Hubert–Arabie adjusted Rand index of two
// labelings of the same items. Two labelings that are both one cluster,
// or both all singletons, agree perfectly and score 1.
func adjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("adjustedRandIndex: %d labels against %d", len(a), len(b)))
	}
	pairs := func(n int) float64 { return float64(n) * float64(n-1) / 2 }
	joint := make(map[[2]int]int)
	rows, cols := make(map[int]int), make(map[int]int)
	for i := range a {
		joint[[2]int{a[i], b[i]}]++
		rows[a[i]]++
		cols[b[i]]++
	}
	var index, sumRows, sumCols float64
	for _, n := range joint {
		index += pairs(n)
	}
	for _, n := range rows {
		sumRows += pairs(n)
	}
	for _, n := range cols {
		sumCols += pairs(n)
	}
	expected := sumRows * sumCols / pairs(len(a))
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		return 1
	}
	return (index - expected) / (maxIndex - expected)
}

func TestAdjustedRandIndex(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2, 2}
	if got := adjustedRandIndex(a, a); got != 1 {
		t.Fatalf("identical labelings: ARI %v, want 1", got)
	}
	permuted := []int{5, 5, 0, 0, 1, 1, 1}
	if got := adjustedRandIndex(a, permuted); got != 1 {
		t.Fatalf("permuted labels: ARI %v, want 1", got)
	}
	// {0,0,1,1} vs {0,0,1,2}: Σ C(n_ij,2) = 1, row pairs 2, column pairs
	// 1, C(4,2) = 6, so expected 1/3, max 3/2 and ARI (2/3)/(7/6) = 4/7.
	if got := adjustedRandIndex([]int{0, 0, 1, 1}, []int{0, 0, 1, 2}); math.Abs(got-4.0/7) > 1e-15 {
		t.Fatalf("hand-computed case: ARI %v, want 4/7", got)
	}
	// {0,0,0,1,1,1} vs {0,0,1,1,2,2}: index 2, row pairs 6, column pairs
	// 3, C(6,2) = 15, so expected 6/5, max 9/2 and ARI 0.8/3.3 = 8/33.
	if got := adjustedRandIndex([]int{0, 0, 0, 1, 1, 1}, []int{0, 0, 1, 1, 2, 2}); math.Abs(got-8.0/33) > 1e-15 {
		t.Fatalf("hand-computed case: ARI %v, want 8/33", got)
	}
	if got := adjustedRandIndex([]int{3, 3, 3}, []int{1, 1, 1}); got != 1 {
		t.Fatalf("one cluster on both sides: ARI %v, want 1", got)
	}
}

// phaseLabels maps every member step of phases to its phase's ID.
func phaseLabels(phases []*Phase) map[int64]int {
	labels := make(map[int64]int)
	for _, p := range phases {
		for _, s := range p.Steps {
			labels[s.Step] = p.ID
		}
	}
	return labels
}

// phaseARI is the ARI of two phase labelings over the steps both hold
// (recordings of one workload share their step numbers).
func phaseARI(x, y map[int64]int) float64 {
	var a, b []int
	for step, l := range x {
		if m, ok := y[step]; ok {
			a, b = append(a, l), append(b, m)
		}
	}
	return adjustedRandIndex(a, b)
}

// ariSummary is "mean [min]" of a set of ARIs.
func ariSummary(v []float64) string {
	var sum float64
	lo := math.Inf(1)
	for _, x := range v {
		sum += x
		lo = math.Min(lo, x)
	}
	return fmt.Sprintf("%.3f [%.3f]", sum/float64(len(v)), lo)
}

// TestPhaseStabilityReport prints, for the benchmark's three paper-pipeline
// workloads at 300 steps (analysis seed 1, as TestPhaseDigestsPinned),
// the ARI of k-means and DBSCAN phase membership between the recordings
// of estimator seeds 1..10 (all 45 pairs, per TPU generation), between
// TPUv2 and TPUv3 of the same seed, and against OLS's phases of the same
// recording, each as mean [min], plus the chosen k and min-samples (with
// the phase count it gives, noise included).
//
//	go test ./internal/core/analyzer -run TestPhaseStabilityReport -stability-report -v
func TestPhaseStabilityReport(t *testing.T) {
	if !*stabilityReport {
		t.Skip("run with -stability-report")
	}
	const steps, seeds = 300, 10
	versions := []tpu.Version{tpu.V2, tpu.V3}
	var lines []string
	for _, workload := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		// labels[algo][version][seed-1]
		labels := map[Algorithm][][]map[int64]int{}
		chosen := map[Algorithm][]string{}
		for vi, v := range versions {
			for s := uint64(1); s <= seeds; s++ {
				_, st := runWorkloadWith(t, workload, estimator.Options{Version: v, Steps: steps, Seed: s})
				f := NewFrontend(st)
				for _, algo := range []Algorithm{OLSAlgo, KMeansAlgo, DBSCANAlgo} {
					rep, err := f.Analyze(workload, algo, Options{Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					if labels[algo] == nil {
						labels[algo] = make([][]map[int64]int, len(versions))
					}
					labels[algo][vi] = append(labels[algo][vi], phaseLabels(rep.Phases))
					switch algo {
					case KMeansAlgo:
						chosen[algo] = append(chosen[algo], fmt.Sprintf("%s:%d", v, rep.ChosenK))
					case DBSCANAlgo:
						chosen[algo] = append(chosen[algo], fmt.Sprintf("%s:%d→%d", v, rep.ChosenMinPts, len(rep.Phases)))
					}
				}
			}
		}
		for _, algo := range []Algorithm{KMeansAlgo, DBSCANAlgo} {
			var cross [2][]float64
			var gen, ols []float64
			for vi := range versions {
				l := labels[algo][vi]
				for i := range l {
					for j := i + 1; j < len(l); j++ {
						cross[vi] = append(cross[vi], phaseARI(l[i], l[j]))
					}
					ols = append(ols, phaseARI(l[i], labels[OLSAlgo][vi][i]))
				}
			}
			for s := range labels[algo][0] {
				gen = append(gen, phaseARI(labels[algo][0][s], labels[algo][1][s]))
			}
			lines = append(lines, fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s |",
				workload, algo, ariSummary(cross[0]), ariSummary(cross[1]), ariSummary(gen), ariSummary(ols),
				countValues(chosen[algo])))
		}
	}
	t.Logf("\n| Workload | Algorithm | Across seeds, v2 | Across seeds, v3 | v2 vs v3 | vs OLS | Chosen k, or min-samples→phases (count) |\n|---|---|---|---|---|---|---|\n%s",
		strings.Join(lines, "\n"))
}

// countValues renders "TPUv2:4×3 TPUv2:5×7 ..." for a list of labels.
func countValues(vals []string) string {
	counts := map[string]int{}
	for _, v := range vals {
		counts[v]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s×%d", k, counts[k])
	}
	return strings.Join(out, " ")
}
