package analyzer

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core/cluster"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func step(id int64, start simclock.Time, ops ...string) *trace.StepStat {
	s := trace.NewStepStat(id)
	at := start
	for _, op := range ops {
		s.Observe(trace.Event{Name: op, Device: trace.TPU, Start: at, Dur: 10, Step: id})
		at += 10
	}
	return s
}

func TestStepSimilarityEquation1(t *testing.T) {
	a := step(1, 0, "x", "y", "z")
	b := step(2, 100, "x", "y", "w")
	// |{x,y}| / min(3,3) = 2/3.
	if sim := StepSimilarity(a, b); sim < 0.66 || sim > 0.67 {
		t.Fatalf("similarity = %g, want 2/3", sim)
	}
	// Subset: |{x,y}|/min(2,3) = 1. Supersets merge under Equation 1.
	c := step(3, 200, "x", "y")
	if sim := StepSimilarity(b, c); sim != 1 {
		t.Fatalf("subset similarity = %g, want 1", sim)
	}
	// Identical sets.
	if sim := StepSimilarity(a, a); sim != 1 {
		t.Fatalf("self similarity = %g", sim)
	}
	// Disjoint sets.
	d := step(4, 300, "p", "q")
	if sim := StepSimilarity(a, d); sim != 0 {
		t.Fatalf("disjoint similarity = %g", sim)
	}
}

func TestStepSimilarityEmptySets(t *testing.T) {
	e1, e2 := trace.NewStepStat(1), trace.NewStepStat(2)
	// Two empty op sets have no evidence of similarity: Equation 1's
	// |A∩B|/min(|A|,|B|) is 0/0, reported as NaN so thresholding can
	// treat it as "undefined, do not merge" rather than silently 1.
	if sim := StepSimilarity(e1, e2); !math.IsNaN(sim) {
		t.Fatalf("empty-vs-empty similarity = %g, want NaN", sim)
	}
	full := step(3, 0, "x")
	if StepSimilarity(e1, full) != 0 {
		t.Fatal("empty vs non-empty should be dissimilar")
	}
}

func TestMeetsThreshold(t *testing.T) {
	cases := []struct {
		sim, thr float64
		want     bool
	}{
		{0.7, 0.7, true},
		{0.69, 0.7, false},
		{1, 0.7, true},
		{math.NaN(), 0.7, false},
		{0.9, math.NaN(), false},
		{math.NaN(), math.NaN(), false},
	}
	for _, c := range cases {
		if got := meetsThreshold(c.sim, c.thr); got != c.want {
			t.Errorf("meetsThreshold(%g, %g) = %v, want %v", c.sim, c.thr, got, c.want)
		}
	}
}

func TestOLSZeroOpStepsDoNotMerge(t *testing.T) {
	// Regression: a step with zero ops used to score similarity 1
	// against anything, gluing unrelated phases together across idle
	// steps. With the NaN contract each empty step breaks the chain.
	steps := []*trace.StepStat{
		step(0, 0, "fusion", "MatMul"),
		step(1, 100, "fusion", "MatMul"),
		trace.NewStepStat(2), // empty (e.g. fully idle window)
		step(3, 300, "ArgMax", "Mean"),
		step(4, 400, "ArgMax", "Mean"),
	}
	phases := OLS(steps, 0.7)
	if len(phases) != 3 {
		t.Fatalf("phases = %d, want 3 (train / idle / eval)", len(phases))
	}
	if got := phases[1].Steps[0].Step; got != 2 {
		t.Fatalf("middle phase starts at step %d, want the empty step 2", got)
	}
}

func TestOLSConsecutiveEmptyStepsEachStandAlone(t *testing.T) {
	// Two empty steps in a row: NaN vs NaN must not merge either.
	steps := []*trace.StepStat{
		trace.NewStepStat(0),
		trace.NewStepStat(1),
		step(2, 200, "x"),
	}
	phases := OLS(steps, 0.7)
	if len(phases) != 3 {
		t.Fatalf("phases = %d, want 3 (each empty step stands alone)", len(phases))
	}
}

func TestOLSGroupsConsecutiveSimilarSteps(t *testing.T) {
	steps := []*trace.StepStat{
		step(0, 0, "init", "restore"),
		step(1, 100, "fusion", "MatMul", "Reshape"),
		step(2, 200, "fusion", "MatMul", "Reshape"),
		step(3, 300, "fusion", "MatMul", "Reshape"),
		step(4, 400, "ArgMax", "Mean", "TopKV2"),
		step(5, 500, "ArgMax", "Mean", "TopKV2"),
	}
	phases := OLS(steps, 0.7)
	if len(phases) != 3 {
		t.Fatalf("phases = %d, want 3 (init/train/eval)", len(phases))
	}
	if len(phases[1].Steps) != 3 {
		t.Fatalf("train phase has %d steps", len(phases[1].Steps))
	}
	ids := phases[2].StepIDs()
	if ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("eval phase steps = %v", ids)
	}
}

func TestOLSThresholdSensitivity(t *testing.T) {
	// At threshold 0, everything is one phase; at 1.0, any set change
	// splits.
	steps := []*trace.StepStat{
		step(0, 0, "a", "b"),
		step(1, 100, "a", "b", "c"),
		step(2, 200, "a", "b"),
		step(3, 300, "q"),
	}
	if n := len(OLS(steps, 0)); n != 1 {
		t.Fatalf("threshold 0 phases = %d", n)
	}
	counts := OLSSweep(steps, []float64{0, 0.5, 1.0})
	if counts[0] > counts[1] || counts[1] > counts[2] {
		t.Fatalf("phase count not monotone in threshold: %v", counts)
	}
}

func TestOLSEmpty(t *testing.T) {
	if p := OLS(nil, 0.7); p != nil {
		t.Fatal("OLS(nil) should be nil")
	}
}

func TestCoverage(t *testing.T) {
	steps := []*trace.StepStat{
		step(0, 0, "a"),             // 10 µs
		step(1, 100, "x", "y", "z"), // 30
		step(2, 200, "x", "y", "z"), // 30
		step(3, 300, "q", "r", "s"), // 30
	}
	phases := OLS(steps, 0.7)
	if len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	// Top-1 = 60/100, top-3 = all.
	if c := Coverage(phases, 1); c < 0.59 || c > 0.61 {
		t.Fatalf("top-1 coverage = %g", c)
	}
	if c := Coverage(phases, 3); c != 1 {
		t.Fatalf("top-3 coverage = %g", c)
	}
	if c := Coverage(nil, 3); c != 0 {
		t.Fatalf("empty coverage = %g", c)
	}
}

func TestAssociateCheckpoints(t *testing.T) {
	steps := []*trace.StepStat{
		step(0, 0, "a", "b"),
		step(1, 100, "a", "b"),
		step(50, 5000, "x", "y"),
		step(51, 5100, "x", "y"),
	}
	phases := OLS(steps, 0.7)
	AssociateCheckpoints(phases, []Checkpoint{
		{Step: 2, Object: "ckpt-2"},
		{Step: 49, Object: "ckpt-49"},
	})
	if phases[0].Checkpoint != "ckpt-2" {
		t.Fatalf("phase 0 checkpoint = %q", phases[0].Checkpoint)
	}
	if phases[1].Checkpoint != "ckpt-49" {
		t.Fatalf("phase 1 checkpoint = %q", phases[1].Checkpoint)
	}
	// No checkpoints: no-op.
	AssociateCheckpoints(phases, nil)
}

// runWorkload produces aggregated steps from a real simulated run.
func runWorkload(t testing.TB, name string, steps int) (*estimator.Runner, []*trace.StepStat) {
	t.Helper()
	return runWorkloadWith(t, name, estimator.Options{Steps: steps})
}

func runWorkloadWith(t testing.TB, name string, opts estimator.Options) (*estimator.Runner, []*trace.StepStat) {
	t.Helper()
	w := workloads.MustGet(name)
	r, err := estimator.New(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Reduce the whole event stream the way the profiler would.
	rec := trace.Reduce(0, 0, runEvents(r), r.IdleFraction(), r.MXUUtilization())
	return r, trace.AggregateSteps([]*trace.ProfileRecord{rec})
}

// runEvents builds a finished run's events, host and device merged as the
// profile service tiles them, from a walk of the run's segments.
func runEvents(r *estimator.Runner) []trace.Event {
	var events []trace.Event
	r.Segments(0, math.MaxInt64, func(seg trace.Segment) bool {
		events = seg.AppendEvents(events)
		return true
	})
	return events
}

func TestOLSOnRealRunFindsThreePhases(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 300)
	phases := OLS(steps, DefaultThreshold)
	if len(phases) < 2 || len(phases) > 6 {
		t.Fatalf("OLS @70%% found %d phases, want ~3", len(phases))
	}
	if c := Coverage(phases, 3); c < 0.95 {
		t.Fatalf("top-3 coverage = %.3f, want >= 0.95", c)
	}
}

// TestClusterReportsMatchSweepPickRerun is the oracle for taking the
// chosen clustering out of the sweep: it spells out the recipe the
// analyzer used to run — sweep for the series, pick, run the clustering
// again at the pick, group the labels — and requires today's report to
// equal it field for field.
func TestClusterReportsMatchSweepPickRerun(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 300)
	const seed = 1
	m := FeatureMatrix(steps, Options{})

	var ssd []float64
	for k := 1; k <= 15; k++ {
		r, err := cluster.KMeans(m, k, seed+uint64(k), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ssd = append(ssd, r.SSD)
	}
	k := cluster.Elbow(ssd)
	kmRerun, err := cluster.KMeans(m, k, seed+uint64(k), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	kmRep, err := AnalyzeSteps("x", steps, KMeansAlgo, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if kmRep.ChosenK != k || !reflect.DeepEqual(kmRep.KMeansSSD, ssd) {
		t.Fatalf("elbow: chose k=%d over SSD %v, oracle k=%d over %v", kmRep.ChosenK, kmRep.KMeansSSD, k, ssd)
	}
	if !reflect.DeepEqual(kmRep.Phases, phasesFromLabels(steps, kmRerun.Assignment)) {
		t.Fatalf("elbow: phases differ from k-means run again at k=%d", k)
	}

	var grid []int
	var noise []float64
	eps := 0.0
	for p := 5; p <= 180; p += 25 {
		r, err := cluster.DBSCAN(m, p, eps, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		eps = r.Eps
		grid = append(grid, p)
		noise = append(noise, r.NoiseRatio())
	}
	minPts := grid[cluster.Elbow(noise)-1]
	rerun, err := cluster.DBSCAN(m, minPts, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSteps("x", steps, DBSCANAlgo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChosenMinPts != minPts || !reflect.DeepEqual(rep.DBSCANGrid, grid) || !reflect.DeepEqual(rep.DBSCANNoise, noise) {
		t.Fatalf("dbscan: chose %d over %v / %v, oracle %d over %v / %v",
			rep.ChosenMinPts, rep.DBSCANGrid, rep.DBSCANNoise, minPts, grid, noise)
	}
	if !reflect.DeepEqual(rep.Phases, phasesFromLabels(steps, rerun.Labels)) {
		t.Fatalf("dbscan: phases differ from DBSCAN run again at minPts=%d", minPts)
	}
}

// TestFrontendBuildsMatrixOnce has eight goroutines analyze one Frontend
// with both clustering algorithms at once: the features and PCA stages
// run exactly once between them and every report equals the one a
// Frontend of its own produces.
func TestFrontendBuildsMatrixOnce(t *testing.T) {
	_, steps := runWorkload(t, "dcgan-mnist", 300)
	algos := []Algorithm{KMeansAlgo, DBSCANAlgo}
	want := make(map[Algorithm]*Report)
	for _, algo := range algos {
		rep, err := AnalyzeSteps("x", steps, algo, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[algo] = rep
	}

	reg := obs.NewRegistry(0)
	f := NewFrontend(steps)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(algo Algorithm, workers int) {
			defer wg.Done()
			rep, err := f.analyze("x", algo, Options{Seed: 1, Obs: reg}, workers)
			if err != nil {
				t.Errorf("%s: %v", algo, err)
			} else if !reflect.DeepEqual(rep, want[algo]) {
				t.Errorf("%s: report on the shared Frontend differs from a Frontend of its own", algo)
			}
		}(algos[g%2], g%3)
	}
	wg.Wait()
	for _, stage := range []string{"analyzer.stage.features_us", "analyzer.stage.pca_us"} {
		if got := reg.Histogram(stage).Count(); got != 1 {
			t.Fatalf("%s observed %d times across 8 concurrent analyses, want 1", stage, got)
		}
	}
}

func TestOLSPhaseCountGrowsWithThreshold(t *testing.T) {
	_, steps := runWorkload(t, "dcgan-cifar10", 300)
	counts := OLSSweep(steps, []float64{0.1, 0.5, 0.7, 0.9, 0.95, 1.0})
	if counts[2] > 8 {
		t.Fatalf("phases @0.7 = %d, too many", counts[2])
	}
	if counts[5] < 3*counts[2] {
		t.Fatalf("phases @1.0 = %d, not much above @0.7 = %d", counts[5], counts[2])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("phase count not monotone: %v", counts)
		}
	}
}

func TestAnalyzeKMeansOnRealRun(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 300)
	rep, err := AnalyzeSteps("bert-mrpc", steps, KMeansAlgo, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChosenK < 2 || rep.ChosenK > 8 {
		t.Fatalf("elbow chose k=%d, want paper-range 4-6ish", rep.ChosenK)
	}
	if len(rep.KMeansSSD) != 15 {
		t.Fatalf("SSD sweep has %d points, want 15", len(rep.KMeansSSD))
	}
	if rep.KMeansSSD[14] >= rep.KMeansSSD[0] {
		t.Fatal("SSD did not fall across the sweep")
	}
	if c := Coverage(rep.Phases, 3); c < 0.80 {
		t.Fatalf("k-means top-3 coverage = %.3f", c)
	}
}

func TestAnalyzeDBSCANOnRealRun(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 300)
	rep, err := AnalyzeSteps("bert-mrpc", steps, DBSCANAlgo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChosenMinPts < 5 {
		t.Fatalf("chosen minPts = %d", rep.ChosenMinPts)
	}
	if len(rep.DBSCANGrid) == 0 || len(rep.DBSCANNoise) != len(rep.DBSCANGrid) {
		t.Fatal("sweep outputs inconsistent")
	}
	// Noise ratio rises with min samples.
	first, last := rep.DBSCANNoise[0], rep.DBSCANNoise[len(rep.DBSCANNoise)-1]
	if last < first {
		t.Fatalf("noise ratio falling: %v", rep.DBSCANNoise)
	}
	if c := Coverage(rep.Phases, 3); c < 0.70 {
		t.Fatalf("dbscan top-3 coverage = %.3f", c)
	}
}

func TestAnalyzeTopOpsMatchTableII(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 300)
	rep, err := AnalyzeSteps("bert-mrpc", steps, OLSAlgo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopTPUOps) != 5 || len(rep.TopHostOps) != 5 {
		t.Fatalf("top ops: %d tpu, %d host", len(rep.TopTPUOps), len(rep.TopHostOps))
	}
	tpuNames := map[string]bool{}
	for _, op := range rep.TopTPUOps {
		tpuNames[op.Name] = true
	}
	if !tpuNames["fusion"] {
		t.Fatalf("fusion not in top TPU ops: %+v", rep.TopTPUOps)
	}
	hostNames := map[string]bool{}
	for _, op := range rep.TopHostOps {
		hostNames[op.Name] = true
	}
	if !hostNames["TransferBufferToInfeedLocked"] && !hostNames["OutfeedDequeueTuple"] {
		t.Fatalf("no infeed/outfeed op in top host ops: %+v", rep.TopHostOps)
	}
}

func TestAnalyzeMemoryBudgetFailure(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 300)
	// DBSCAN needs ~steps² × 8 bytes; strangle it.
	_, err := AnalyzeSteps("x", steps, DBSCANAlgo, Options{MemoryBudget: 1 << 10})
	if !errors.Is(err, cluster.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	// OLS has no such limit (the paper's point).
	if _, err := AnalyzeSteps("x", steps, OLSAlgo, Options{MemoryBudget: 1 << 10}); err != nil {
		t.Fatalf("OLS failed under budget: %v", err)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := AnalyzeSteps("x", nil, OLSAlgo, Options{}); err == nil {
		t.Fatal("empty steps accepted")
	}
	s := []*trace.StepStat{step(0, 0, "a")}
	if _, err := AnalyzeSteps("x", s, Algorithm("quantum"), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAnalyzeFromRecords(t *testing.T) {
	r, _ := runWorkload(t, "dcgan-mnist", 150)
	// Split events into multiple profile windows like the profiler does.
	events := runEvents(r)
	mid := events[len(events)/2].Start
	// Each window reduced as the service reads it, a segment at a time.
	reduce := func(seq int64, from, to simclock.Time) *trace.ProfileRecord {
		red := trace.NewReducer(seq, from)
		r.Segments(from, to, func(seg trace.Segment) bool {
			red.AddSegment(seg)
			return true
		})
		return red.Record(0.4, 0.2)
	}
	rec1 := reduce(0, 0, mid)
	rec2 := reduce(1, mid, r.Now()+1)
	rep, err := Analyze("dcgan-mnist", []*trace.ProfileRecord{rec1, rec2}, OLSAlgo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps == 0 || len(rep.Phases) == 0 {
		t.Fatal("no phases from records")
	}
	if rep.Longest == nil || rep.Longest.Total == 0 {
		t.Fatal("no longest phase")
	}
}

func TestReportMetadata(t *testing.T) {
	_, steps := runWorkload(t, "bert-mrpc", 200)
	rep, err := AnalyzeSteps("bert-mrpc", steps, OLSAlgo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IdleFrac <= 0 || rep.IdleFrac >= 1 {
		t.Fatalf("report idle = %g", rep.IdleFrac)
	}
	if rep.TotalTime <= 0 {
		t.Fatal("report total time zero")
	}
	if rep.Workload != "bert-mrpc" || rep.Algorithm != OLSAlgo {
		t.Fatal("report identity wrong")
	}
}

func BenchmarkOLS600Steps(b *testing.B) {
	_, steps := runWorkload(b, "dcgan-cifar10", 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OLS(steps, DefaultThreshold)
	}
}

func BenchmarkKMeansAnalyze(b *testing.B) {
	_, steps := runWorkload(b, "dcgan-cifar10", 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSteps("x", steps, KMeansAlgo, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
