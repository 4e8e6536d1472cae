// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections V-VII). Each FigNN/TableN function returns the
// structured data behind the corresponding artifact (one function for
// figures drawn from the same runs); Reproduce collects them all into one
// Paper, which cmd/paperbench prints in the paper's row/series layout. The
// root bench suite runs one benchmark per function.
//
// A Lab caches full profiled training runs keyed by (workload, version,
// variant) so that the many figures sharing the same runs (4-11 and
// Table II all consume the base v2/v3 profiles) pay for each run once.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core/analyzer"
	"repro/internal/core/profiler"
	"repro/internal/estimator"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Variant selects a workload flavor.
type Variant string

// Workload variants used across the evaluation.
const (
	Reference Variant = "reference" // Table I defaults, tuned pipeline
	Naive     Variant = "naive"     // untuned pipeline (Section VII-C)
	Small     Variant = "small"     // reduced dataset (Figures 12/13)
)

// AnalyzerBudget is the clustering memory budget used throughout the
// evaluation. It is sized so that DBSCAN's quadratic working set exceeds
// it on the largest run (ResNet), reproducing the paper's note that
// "k-means and DBSCAN reach memory limitations for larger workloads".
const AnalyzerBudget = 16 << 20

// RunResult is one cached profiled training run.
type RunResult struct {
	Workload string
	Variant  Variant
	Version  tpu.Version

	Records []*trace.ProfileRecord
	Steps   []*trace.StepStat
	// Front is the analyzer front-end over Steps: the figures and tables
	// that cluster this run share its one feature matrix and PCA.
	Front *analyzer.Frontend

	IdleFrac     float64
	MXUUtil      float64
	TotalSeconds float64
	Checkpoints  []analyzer.Checkpoint
}

// Lab caches runs. Safe for concurrent use.
type Lab struct {
	mu   sync.Mutex
	runs map[string]*RunResult

	// StepsOverride shortens every run (used by tests); 0 keeps each
	// workload's calibrated TrainSteps.
	StepsOverride int
}

// NewLab returns an empty lab.
func NewLab() *Lab {
	return &Lab{runs: make(map[string]*RunResult)}
}

func key(name string, variant Variant, v tpu.Version) string {
	return fmt.Sprintf("%s|%s|%s", name, variant, v)
}

// Run returns the cached profiled run, executing it on first use.
// The run is profiled the production way: a TPUPoint-Profiler goroutine
// draining the run's profile service into statistical records.
func (l *Lab) Run(name string, variant Variant, version tpu.Version) (*RunResult, error) {
	k := key(name, variant, version)
	l.mu.Lock()
	if r, ok := l.runs[k]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()

	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	switch variant {
	case Naive:
		w = w.Naive()
	case Small:
		if w, err = w.Small(); err != nil {
			return nil, err
		}
	}

	svc := storage.NewService()
	bucket, err := svc.CreateBucket("lab")
	if err != nil {
		return nil, err
	}
	runner, err := estimator.New(w, estimator.Options{
		Version: version,
		Steps:   l.StepsOverride,
		Bucket:  bucket,
	})
	if err != nil {
		return nil, err
	}

	p := profiler.New(&profiler.ServiceClient{Service: runner.ProfileService()}, profiler.Options{})
	if err := p.Start(false); err != nil {
		return nil, err
	}
	if err := runner.Run(); err != nil {
		return nil, err
	}
	records, err := p.Stop()
	if err != nil {
		return nil, err
	}

	var cks []analyzer.Checkpoint
	for _, ck := range runner.Checkpoints() {
		cks = append(cks, analyzer.Checkpoint{Step: ck.Step, Object: ck.Object})
	}
	steps := trace.AggregateSteps(records)
	res := &RunResult{
		Workload:     name,
		Variant:      variant,
		Version:      version,
		Records:      records,
		Steps:        steps,
		Front:        analyzer.NewFrontend(steps),
		IdleFrac:     runner.IdleFraction(),
		MXUUtil:      runner.MXUUtilization(),
		TotalSeconds: runner.TotalTime().Seconds(),
		Checkpoints:  cks,
	}
	l.mu.Lock()
	l.runs[k] = res
	l.mu.Unlock()
	return res, nil
}

// AllWorkloads is the paper's workload list in Table I order.
func AllWorkloads() []string { return workloads.Names() }

// LongWorkloads are the evaluation's "twenty minutes or more" set used by
// the optimizer experiments (Figure 14).
func LongWorkloads() []string { return []string{"qanet-squad", "retinanet-coco"} }

// SmallDatasetWorkloads are Figures 12/13's subjects.
func SmallDatasetWorkloads() []string {
	return []string{"qanet-squad", "retinanet-coco", "resnet-imagenet"}
}
