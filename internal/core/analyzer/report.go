package analyzer

import (
	"fmt"
	"time"

	"repro/internal/simclock"
	"repro/internal/trace"
)

// Report is the full output of one analysis: phases plus the derived
// tables the paper presents.
type Report struct {
	Workload  string
	Algorithm Algorithm

	Steps  int
	Phases []*Phase

	// Longest is the most time-consuming phase.
	Longest *Phase

	// TopHostOps / TopTPUOps are the top-5 operators of the longest
	// phase per device — one column of Table II.
	TopHostOps []trace.OpTotal
	TopTPUOps  []trace.OpTotal

	// CoverageTop3 is the execution-time share of the three longest
	// phases (Figures 7-9).
	CoverageTop3 float64

	// Sweep diagnostics (whichever the algorithm produced).
	KMeansSSD    []float64 // Figure 4 series
	ChosenK      int
	DBSCANGrid   []int     // Figure 5 x-axis
	DBSCANNoise  []float64 // Figure 5 series
	ChosenMinPts int

	// Window metadata averaged over all steps.
	IdleFrac float64
	MXUUtil  float64

	TotalTime simclock.Duration
}

// Analyze reduces profile records to a phase report with one algorithm.
func Analyze(workload string, records []*trace.ProfileRecord, algo Algorithm, opts Options) (*Report, error) {
	steps := trace.AggregateSteps(records)
	return AnalyzeSteps(workload, steps, algo, opts)
}

// AnalyzeSteps is Analyze for already-aggregated step statistics.
func AnalyzeSteps(workload string, steps []*trace.StepStat, algo Algorithm, opts Options) (*Report, error) {
	return NewFrontend(steps).Analyze(workload, algo, opts)
}

// Analyze reduces the Frontend's steps to a phase report with one
// algorithm; reports of several algorithms share its feature matrix.
func (f *Frontend) Analyze(workload string, algo Algorithm, opts Options) (*Report, error) {
	return f.analyze(workload, algo, opts, 0)
}

// analyze is Analyze with the clustering stages on a pool of the given
// size (0 = GOMAXPROCS); the report is the same at every size.
func (f *Frontend) analyze(workload string, algo Algorithm, opts Options, workers int) (*Report, error) {
	steps := f.steps
	if len(steps) == 0 {
		return nil, fmt.Errorf("analyzer: no steps to analyze")
	}
	opts = opts.withDefaults()
	r := &Report{Workload: workload, Algorithm: algo, Steps: len(steps)}

	switch algo {
	case OLSAlgo:
		start := time.Now()
		r.Phases = OLS(steps, opts.Threshold)
		opts.Obs.Histogram("analyzer.stage.ols_us").ObserveSince(start)
	case KMeansAlgo:
		phases, ssd, k, err := f.kmeansPhases(opts, workers)
		if err != nil {
			return nil, err
		}
		r.Phases, r.KMeansSSD, r.ChosenK = phases, ssd, k
	case DBSCANAlgo:
		phases, grid, noise, minPts, err := f.dbscanPhases(opts, workers)
		if err != nil {
			return nil, err
		}
		r.Phases, r.DBSCANGrid, r.DBSCANNoise, r.ChosenMinPts = phases, grid, noise, minPts
	default:
		return nil, fmt.Errorf("analyzer: unknown algorithm %q", algo)
	}

	ordered := SortByTotal(r.Phases)
	r.Longest = ordered[0]
	longestOps := trace.MergeSteps(r.Longest.Steps)
	r.TopHostOps = trace.TopOf(longestOps, trace.Host, topOpsPerDevice)
	r.TopTPUOps = trace.TopOf(longestOps, trace.TPU, topOpsPerDevice)
	r.CoverageTop3 = Coverage(r.Phases, 3)

	var run StreamPhase // the whole run: span-weighted idle/MXU and the wall extent
	for _, st := range steps {
		run.fold(st)
	}
	run.close()
	r.IdleFrac, r.MXUUtil, r.TotalTime = run.IdleFrac, run.MXUUtil, run.End.Sub(run.Start)
	return r, nil
}

// OLSSweep counts phases across similarity thresholds (Figure 6's data).
// Thresholds are fractions in [0, 1].
func OLSSweep(steps []*trace.StepStat, thresholds []float64) []int {
	out := make([]int, len(thresholds))
	for i, th := range thresholds {
		out[i] = len(OLS(steps, th))
	}
	return out
}
