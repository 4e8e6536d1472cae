// Package analyzer implements TPUPoint-Analyzer: the post-execution pass
// that turns statistical profile records into program phases.
//
// Three summarization methods are provided, mirroring Section IV:
//
//   - OLS, the online linear scan: consecutive steps whose operator sets
//     satisfy Equation 1's StepSimilarity above a threshold (default 70%)
//     merge into one phase;
//   - k-means over PCA-reduced step feature vectors (the leading
//     components that carry 99% of the variance, about a third of the
//     feature columns on the paper's workloads), k = 1..15 selected by
//     the elbow method on the sum of squared distances (the paper's choice
//     over SimPoint's Bayesian information criterion);
//   - DBSCAN over the same features, minimum-samples selected by the elbow
//     method on the noise ratio, with the unlabeled (noise) points kept as
//     one extra cluster, as the paper does for its coverage numbers.
//
// The package also produces the derived results the paper reports: phase
// coverage of execution time, the top-N most time-consuming operators of
// the longest phase (Table II), and phase→checkpoint association.
package analyzer

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core/cluster"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Algorithm selects a phase-detection method.
type Algorithm string

// The three summarization methods.
const (
	OLSAlgo    Algorithm = "ols"
	KMeansAlgo Algorithm = "kmeans"
	DBSCANAlgo Algorithm = "dbscan"
)

// DefaultThreshold is the OLS similarity threshold the paper found to give
// 3 phases covering ≥95% of execution for most workloads.
const DefaultThreshold = 0.70

// topOpsPerDevice is a top-op table's depth per device (Table II's).
const topOpsPerDevice = 5

// The paper's sweeps: k-means over k = 1..15, DBSCAN over min-samples
// 5..180 in steps of 25.
const (
	kMax       = 15
	minPtsMax  = 180
	minPtsStep = 25
)

// Options tune an analysis run.
type Options struct {
	// Threshold is the OLS StepSimilarity threshold (default 0.70).
	Threshold float64
	// Seed feeds k-means initialization.
	Seed uint64
	// MemoryBudget bounds clustering working memory in bytes; exceeded
	// budgets surface cluster.ErrMemoryBudget (0 = unlimited).
	MemoryBudget int64
	// Obs, when set, records per-stage wall time (feature extraction,
	// PCA, the clustering sweeps, OLS) as latency histograms.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	return o
}

// Phase is a group of steps with similar behaviour.
type Phase struct {
	ID    int
	Steps []*trace.StepStat

	Start simclock.Time     // earliest member start
	End   simclock.Time     // latest member end
	Total simclock.Duration // summed member spans (incl. pre-step idle)

	// Checkpoint is the closest saved checkpoint, filled by
	// AssociateCheckpoints.
	Checkpoint string
}

// StepIDs returns the member step numbers in ascending order.
func (p *Phase) StepIDs() []int64 {
	ids := make([]int64, len(p.Steps))
	for i, s := range p.Steps {
		ids[i] = s.Step
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// StepSimilarity computes Equation 1: the ratio of the intersection of
// the two steps' event sets to the size of the smaller set. The ratio
// is undefined when both steps are empty — there is no evidence either
// way — so that case returns NaN; callers must compare through
// meetsThreshold (olsChain does), which treats NaN as "not similar". A step
// with ops compared against an empty step is 0: no shared behaviour.
func StepSimilarity(a, b *trace.StepStat) float64 {
	x, y := a.Ops, b.Ops
	small := min(len(x), len(y))
	if small == 0 {
		if len(x)+len(y) == 0 {
			return math.NaN()
		}
		return 0
	}
	// Both lists are sorted by operator: one pass counts the shared ones.
	inter := 0
	for i, j := 0, 0; i < len(x) && j < len(y); {
		c := x[i].Key().Compare(y[j].Key())
		if c == 0 {
			inter++
		}
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
	}
	return float64(inter) / float64(small)
}

// meetsThreshold is the one place a StepSimilarity value is compared
// against the OLS threshold. The comparison is explicit about the edge
// cases: a NaN similarity (two empty steps — Equation 1 undefined) or a
// NaN threshold never merges. Before this rule an empty step always
// merged into a preceding empty step because the undefined ratio was
// reported as 1.
func meetsThreshold(sim, threshold float64) bool {
	if math.IsNaN(sim) || math.IsNaN(threshold) {
		return false
	}
	return sim >= threshold
}

// olsChain is the OLS boundary chain: the one "same phase or new phase"
// rule, shared by batch OLS and the StreamAnalyzer. It takes the
// threshold verbatim (Figure 6 sweeps 0); "0 means the default" lives in
// the option layers.
type olsChain struct {
	threshold float64
	prev      *trace.StepStat // the comparison anchor: the last step given
}

// opens reports whether st starts a phase (it is the first step, or not
// similar enough to the previous one) and makes st the next anchor.
func (c *olsChain) opens(st *trace.StepStat) bool {
	open := c.prev == nil || !meetsThreshold(StepSimilarity(c.prev, st), c.threshold)
	c.prev = st
	return open
}

// OLS runs the online linear scan: walk the steps in order and merge each
// step into the current phase when its similarity to the previous step
// meets the threshold, otherwise start a new phase. Undefined
// similarities (both steps empty) and NaN thresholds never merge — see
// meetsThreshold.
func OLS(steps []*trace.StepStat, threshold float64) []*Phase {
	chain := olsChain{threshold: threshold}
	var phases []*Phase
	for _, st := range steps {
		if chain.opens(st) {
			phases = append(phases, &Phase{ID: len(phases)})
		}
		phases[len(phases)-1].addStep(st)
	}
	return phases
}

func (p *Phase) addStep(s *trace.StepStat) {
	if len(p.Steps) == 0 || s.Start < p.Start {
		p.Start = s.Start
	}
	if s.End > p.End {
		p.End = s.End
	}
	p.Total += s.End.Sub(s.Start)
	p.Steps = append(p.Steps, s)
}

// Summarize folds the phase's member steps, in order, into the aggregate
// the StreamAnalyzer keeps for a phase and closes it: the one form the
// archive summarizes batch and streamed phases through.
func (p *Phase) Summarize() *StreamPhase {
	sp := &StreamPhase{ID: p.ID}
	for _, st := range p.Steps {
		sp.fold(st)
		sp.ops = trace.MergeOps(sp.ops, st.Ops)
	}
	sp.close()
	return sp
}

// Frontend is the analyzer's view of one record set: the aggregated
// steps every summarization method walks and, built lazily and at most
// once, the standardized PCA-reduced feature matrix k-means and DBSCAN
// both cluster (Figure 2: the methods summarize the same step features).
// Analyzing one record set with several algorithms through one Frontend
// therefore extracts features and runs PCA once; Analyze, AnalyzeSteps
// and FeatureMatrix are a Frontend used once.
//
// The clustering stages fan out over a GOMAXPROCS-sized worker pool;
// results are bit-identical at every pool size, because the parallel
// reductions merge in a fixed chunk order (see internal/parallel).
//
// The steps must not change once handed over (records are immutable
// after the profiler or a decoder returns them). A Frontend is safe for
// concurrent use.
type Frontend struct {
	steps []*trace.StepStat

	once   sync.Once
	matrix *cluster.Matrix
}

// NewFrontend wraps aggregated steps (trace.AggregateSteps of a record
// set). Nothing is computed until an algorithm needs it.
func NewFrontend(steps []*trace.StepStat) *Frontend {
	return &Frontend{steps: steps}
}

// Matrix returns the standardized, PCA-reduced step feature matrix. The
// first call builds it and records the features and PCA stage times in
// its opts.Obs — once per Frontend. Callers must not modify it.
func (f *Frontend) Matrix(opts Options) *cluster.Matrix {
	return f.buildMatrix(opts, 0)
}

// buildMatrix is Matrix on a pool of the given size (0 = GOMAXPROCS).
// The matrix is bit-identical at every size, so later callers get the
// same values whatever they pass.
func (f *Frontend) buildMatrix(opts Options, workers int) *cluster.Matrix {
	f.once.Do(func() {
		start := time.Now()
		m, _ := cluster.Features(f.steps, workers)
		cluster.Standardize(m, workers)
		opts.Obs.Histogram("analyzer.stage.features_us").ObserveSince(start)
		start = time.Now()
		f.matrix = cluster.PCA(m, cluster.MaxFeatureOps, workers)
		opts.Obs.Histogram("analyzer.stage.pca_us").ObserveSince(start)
	})
	return f.matrix
}

// FeatureMatrix builds the standardized, PCA-reduced step feature matrix
// every clustering algorithm consumes, recording the features and PCA
// stage times in opts.Obs.
func FeatureMatrix(steps []*trace.StepStat, opts Options) *cluster.Matrix {
	return NewFrontend(steps).Matrix(opts)
}

// phasesFromLabels groups steps by cluster label. Label order follows
// first appearance so phase IDs are stable.
func phasesFromLabels(steps []*trace.StepStat, labels []int) []*Phase {
	byLabel := make(map[int]*Phase)
	var order []int
	for i, s := range steps {
		l := labels[i]
		p, ok := byLabel[l]
		if !ok {
			p = &Phase{ID: len(order)}
			byLabel[l] = p
			order = append(order, l)
		}
		p.addStep(s)
	}
	out := make([]*Phase, 0, len(order))
	for _, l := range order {
		out = append(out, byLabel[l])
	}
	return out
}

// kmeansPhases clusters the steps with PCA + k-means, choosing k by the
// elbow method over the paper's k = 1..15 sweep. It returns the phases,
// the SSD series of the sweep (Figure 4's data), and the chosen k.
func (f *Frontend) kmeansPhases(opts Options, workers int) ([]*Phase, []float64, int, error) {
	m := f.buildMatrix(opts, workers)
	defer opts.Obs.Histogram("analyzer.stage.kmeans_us").ObserveSince(time.Now())
	sweep, err := cluster.KMeansSweep(m, kMax, opts.Seed, opts.MemoryBudget, workers)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("analyzer: k-means sweep: %w", err)
	}
	ssd := make([]float64, len(sweep))
	for i, r := range sweep {
		ssd[i] = r.SSD
	}
	k := cluster.Elbow(ssd)
	return phasesFromLabels(f.steps, sweep[k-1].Assignment), ssd, k, nil
}

// dbscanPhases clusters the steps with DBSCAN, choosing min-samples by
// the elbow method over the noise-ratio sweep. Noise points form one
// additional phase (the paper counts unlabeled samples as a cluster when
// measuring coverage). It returns the phases, the sweep's minPts grid and
// noise ratios (Figure 5's data), and the chosen minPts.
func (f *Frontend) dbscanPhases(opts Options, workers int) ([]*Phase, []int, []float64, int, error) {
	m := f.buildMatrix(opts, workers)
	defer opts.Obs.Histogram("analyzer.stage.dbscan_us").ObserveSince(time.Now())
	sweep, err := cluster.DBSCANSweep(m, minPtsMax, minPtsStep, opts.MemoryBudget, workers)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("analyzer: dbscan sweep: %w", err)
	}
	grid := make([]int, len(sweep))
	ratios := make([]float64, len(sweep))
	for i, r := range sweep {
		grid[i] = r.MinPts
		ratios[i] = r.NoiseRatio()
	}
	// The noise curve rises with min-samples; the elbow of the *rising*
	// curve balances "minimize noise" against "maximize min samples".
	res := sweep[cluster.Elbow(ratios)-1]
	return phasesFromLabels(f.steps, res.Labels), grid, ratios, res.MinPts, nil
}

// SortByTotal orders phases by descending total time.
func SortByTotal(phases []*Phase) []*Phase {
	out := append([]*Phase(nil), phases...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Coverage returns the fraction of total step time covered by the top-n
// phases (Figures 7-9).
func Coverage(phases []*Phase, n int) float64 {
	var total, top simclock.Duration
	for _, p := range phases {
		total += p.Total
	}
	if total == 0 {
		return 0
	}
	for i, p := range SortByTotal(phases) {
		if i >= n {
			break
		}
		top += p.Total
	}
	return float64(top) / float64(total)
}

// Checkpoint is a saved model state the analyzer can point a phase at.
type Checkpoint struct {
	Step   int64
	Object string
}

// AssociateCheckpoints fills each phase's Checkpoint with the saved
// checkpoint closest to the phase's steps, enabling restart-at-phase.
func AssociateCheckpoints(phases []*Phase, ckpts []Checkpoint) {
	if len(ckpts) == 0 {
		return
	}
	for _, p := range phases {
		ids := p.StepIDs()
		best := ""
		bestDist := int64(-1)
		for _, ck := range ckpts {
			d := minStepDistance(ids, ck.Step)
			if bestDist < 0 || d < bestDist {
				bestDist = d
				best = ck.Object
			}
		}
		p.Checkpoint = best
	}
}

func minStepDistance(sorted []int64, step int64) int64 {
	best := int64(-1)
	for _, id := range sorted {
		d := id - step
		if d < 0 {
			d = -d
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}
