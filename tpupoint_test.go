package tpupoint

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/analyzer"
	"repro/internal/core/viz"
	"repro/internal/trace"
)

func TestWorkloadsList(t *testing.T) {
	names := Workloads()
	if len(names) != 9 {
		t.Fatalf("workloads = %d", len(names))
	}
	for _, name := range names {
		w, err := GetWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		desc := Describe(w)
		if !strings.Contains(desc, w.Model) || !strings.Contains(desc, w.Dataset.Name) {
			t.Fatalf("Describe misses fields: %q", desc)
		}
	}
	if _, err := GetWorkload("gpt-42"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSessionFigure2Flow(t *testing.T) {
	s, err := NewSession("bert-mrpc", Options{Steps: 220})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.StartProfiler(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	if s.IdleFraction() <= 0 || s.MXUUtilization() <= 0 || s.TotalSeconds() <= 0 {
		t.Fatal("degenerate run metrics")
	}

	rep, err := s.Analyze(records, OLS)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) < 2 || rep.CoverageTop3 < 0.95 {
		t.Fatalf("phases=%d coverage=%.3f", len(rep.Phases), rep.CoverageTop3)
	}
	// Checkpoint association flowed through the session.
	found := false
	for _, ph := range rep.Phases {
		if ph.Checkpoint != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("no phase has a checkpoint")
	}

	// Records persisted to the bucket are loadable.
	loaded, err := s.LoadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(records) {
		t.Fatalf("loaded %d of %d records", len(loaded), len(records))
	}

	// Artifacts render.
	var trace, csv bytes.Buffer
	if err := s.WriteTrace(&trace, rep, records); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "Phase Breakdown") {
		t.Fatal("trace missing phase track")
	}
	if !strings.Contains(csv.String(), "phase,steps") {
		t.Fatal("csv missing header")
	}
}

// TestWriteTraceDrawsFirstEvents: WriteTrace, which reads the run's
// segments only as far as the events it draws, writes the bytes it writes
// from the whole run's events, on the three workloads the paper pipeline
// renders.
func TestWriteTraceDrawsFirstEvents(t *testing.T) {
	for _, name := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		s, err := NewSession(name, Options{Steps: 300})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Train(); err != nil {
			t.Fatal(err)
		}
		p, err := s.StartProfiler(true)
		if err != nil {
			t.Fatal(err)
		}
		records, err := p.Stop()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Analyze(records, OLS)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := s.WriteTrace(&got, rep, records); err != nil {
			t.Fatal(err)
		}
		events := runEvents(s.runner)
		whole := func(yield func(trace.Segment) bool) { yield(trace.Segment{Events: events}) }
		if err := viz.WriteChromeTrace(&want, rep.Phases, records, whole, traceOps); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: the trace drawn from the first %d events differs from the one drawn from the whole run", name, traceOps)
		}
	}
}

func TestSessionTrainTwice(t *testing.T) {
	s, err := NewSession("dcgan-mnist", Options{Steps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err == nil {
		t.Fatal("second Train accepted")
	}
}

func TestSessionVariants(t *testing.T) {
	small, err := NewSession("resnet-imagenet", Options{Steps: 100, SmallDataset: true})
	if err != nil {
		t.Fatal(err)
	}
	if small.Workload().Dataset.Name != "cifar10" {
		t.Fatalf("small resnet dataset = %s", small.Workload().Dataset.Name)
	}
	naive, err := NewSession("qanet-squad", Options{Steps: 100, NaivePipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(naive.Workload().Name, "-naive") {
		t.Fatalf("naive workload name = %s", naive.Workload().Name)
	}
	if _, err := NewSession("unknown", Options{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSessionV3Behaviour(t *testing.T) {
	run := func(v Version) (float64, float64) {
		s, err := NewSession("bert-cola", Options{Steps: 200, Version: v})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Train(); err != nil {
			t.Fatal(err)
		}
		return s.IdleFraction(), s.MXUUtilization()
	}
	i2, m2 := run(V2)
	i3, m3 := run(V3)
	if i3 <= i2 {
		t.Fatalf("v3 idle %.3f <= v2 %.3f", i3, i2)
	}
	if m3 >= m2 {
		t.Fatalf("v3 mxu %.3f >= v2 %.3f", m3, m2)
	}
}

func TestOptimizeFacade(t *testing.T) {
	res, err := Optimize("dcgan-cifar10", OptimizeOptions{Steps: 220, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredSpeedup <= 1.2 {
		t.Fatalf("naive optimize speedup = %.3f", res.MeasuredSpeedup)
	}
	if _, err := Optimize("nope", OptimizeOptions{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAnalyzeAlgorithms(t *testing.T) {
	s, err := NewSession("dcgan-cifar10", Options{Steps: 250})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.StartProfiler(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{OLS, KMeans, DBSCAN} {
		rep, err := s.Analyze(records, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(rep.Phases) == 0 || rep.Longest == nil {
			t.Fatalf("%s produced no phases", algo)
		}
	}
	if _, err := s.Analyze(records, Algorithm("magic")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestSessionAnalyzeSharesFrontend pins the once-per-record-set
// front-end: the three algorithms over one record set build the feature
// matrix and PCA once, every report equals an independent
// analyzer.Analyze, any other record set (a shorter one, the first one
// again after it was replaced, one with a single element swapped for a
// copy) rebuilds, and concurrent callers share one build.
func TestSessionAnalyzeSharesFrontend(t *testing.T) {
	reg := NewMetrics(0)
	s, err := NewSession("resnet-imagenet", Options{Steps: 120, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Profile after training: the windows, and so the record count (several
	// for this workload), then don't depend on how the profiler's polling
	// interleaves with the run.
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	p, err := s.StartProfiler(false)
	if err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("need >= 2 records to vary the set, got %d", len(records))
	}

	// Every set below but the shorter one holds the same record contents
	// as records, so one fresh report per algorithm is the oracle for all
	// of them; the shorter set is passed a nil oracle.
	algos := []Algorithm{OLS, KMeans, DBSCAN}
	fresh := make(map[Algorithm]*Report)
	for _, algo := range algos {
		fresh[algo], err = analyzer.Analyze(s.workload.Name, records, algo, analyzer.Options{Seed: s.workload.Seed})
		if err != nil {
			t.Fatal(err)
		}
	}
	analyze := func(recs []*ProfileRecord, algo Algorithm, want map[Algorithm]*Report) {
		rep, err := s.Analyze(recs, algo)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			return
		}
		for _, ph := range rep.Phases {
			ph.Checkpoint = "" // the session's addition to the analyzer's report
		}
		if want != nil && !reflect.DeepEqual(rep, want[algo]) {
			t.Errorf("%s: session report differs from a fresh analyzer.Analyze", algo)
		}
	}
	builds := func(when string, want int64) {
		t.Helper()
		for _, stage := range []string{"analyzer.stage.features_us", "analyzer.stage.pca_us"} {
			if got := reg.Histogram(stage).Count(); got != want {
				t.Fatalf("%s: %s observed %d times, want %d", when, stage, got, want)
			}
		}
	}
	all := func(recs []*ProfileRecord, want map[Algorithm]*Report) {
		for _, algo := range algos {
			analyze(recs, algo, want)
		}
	}

	all(records, fresh)
	builds("three algorithms, one record set", 1)
	all(records, fresh)
	builds("the same set again", 1)
	all(records[:len(records)-1], nil)
	builds("a shorter set", 2)
	all(records, fresh)
	builds("the first set after it was replaced", 3)
	swapped := slices.Clone(records)
	first := *records[0]
	swapped[0] = &first
	all(swapped, fresh)
	builds("one element replaced", 4)

	other := slices.Clone(records)
	last := *records[len(records)-1]
	other[len(other)-1] = &last
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(algo Algorithm) {
			defer wg.Done()
			analyze(other, algo, fresh)
		}(algos[g%len(algos)])
	}
	wg.Wait()
	builds("8 concurrent callers on a new set", 5)
}

func TestSessionResumeAtPhaseCheckpoint(t *testing.T) {
	s, err := NewSession("bert-mrpc", Options{Steps: 220})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.StartProfiler(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Analyze(records, OLS)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt string
	for _, ph := range rep.Phases {
		if ph.Checkpoint != "" {
			ckpt = ph.Checkpoint
			break
		}
	}
	if ckpt == "" {
		t.Fatal("no phase checkpoint to resume from")
	}
	// The resumed session reports into the registry its Options name.
	reg := NewMetrics(0)
	resumed, err := s.Resume(ckpt, Options{Steps: 60, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := resumed.StartProfiler(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("profiler.windows.fetched").Value(); got <= 0 {
		t.Fatalf("resumed session's profiler fetched %d windows into Options.Obs, want > 0", got)
	}
	if resumed.TotalSeconds() >= s.TotalSeconds() {
		t.Fatalf("resumed run (%.1fs) not shorter than original (%.1fs)",
			resumed.TotalSeconds(), s.TotalSeconds())
	}
	// Error paths.
	if _, err := s.Resume("", Options{}); err == nil {
		t.Fatal("empty checkpoint accepted")
	}
	if _, err := s.Resume("ckpt/unknown", Options{}); err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
}
