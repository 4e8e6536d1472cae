// Package tpupoint is a Go reproduction of TPUPoint (Wudenhe & Tseng,
// ISPASS 2021): a toolchain that characterizes and auto-tunes the behavior
// of machine-learning workloads on Cloud TPUs.
//
// Because no TPU hardware is reachable from Go, the package ships its own
// substrate: a calibrated discrete-timing simulator of TPUv2/TPUv3 chips,
// the host input pipeline, an XLA-style fusion compiler, and the nine
// model/dataset workloads of the paper's Table I. On top of that substrate
// sit faithful implementations of the paper's three tools:
//
//   - TPUPoint-Profiler: a background goroutine that streams statistical
//     profile records from the (simulated) TPU while training runs;
//   - TPUPoint-Analyzer: phase detection via OLS (Equation 1), k-means,
//     and DBSCAN, with coverage metrics, top-op tables, checkpoint
//     association, and chrome://tracing visualization;
//   - TPUPoint-Optimizer: online hill-climbing over the input pipeline's
//     adjustable parameters with checkpoint/rollback.
//
// The quickstart mirrors the paper's Figure 2:
//
//	s, _ := tpupoint.NewSession("resnet-imagenet", tpupoint.Options{Version: tpupoint.V2})
//	p, _ := s.StartProfiler(true) // analyzer mode
//	_ = s.Train()
//	records, _ := p.Stop()
//	rep, _ := s.Analyze(records, tpupoint.OLS)
package tpupoint

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/core/analyzer"
	"repro/internal/core/optimizer"
	"repro/internal/core/profiler"
	"repro/internal/core/viz"
	"repro/internal/estimator"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Version selects a Cloud TPU generation.
type Version = tpu.Version

// Supported generations.
const (
	V2 = tpu.V2
	V3 = tpu.V3
)

// Algorithm selects a phase-detection method for Analyze.
type Algorithm = analyzer.Algorithm

// Phase-detection algorithms.
const (
	OLS    = analyzer.OLSAlgo
	KMeans = analyzer.KMeansAlgo
	DBSCAN = analyzer.DBSCANAlgo
)

// Re-exported result types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Report is a full TPUPoint-Analyzer result.
	Report = analyzer.Report
	// Phase is one detected program phase.
	Phase = analyzer.Phase
	// ProfileRecord is one statistical profile record.
	ProfileRecord = trace.ProfileRecord
	// OptimizeResult compares a tuned run against its baseline.
	OptimizeResult = optimizer.Result
	// PipelineParams are the adjustable input-pipeline parameters.
	PipelineParams = host.Params
	// Workload is a runnable model/dataset pair from the Table I registry.
	Workload = workloads.Workload
	// Metrics is the observability registry components report into; pass
	// one via Options.Obs / OptimizeOptions.Obs and snapshot it after the
	// run (see internal/obs).
	Metrics = obs.Registry
)

// NewMetrics builds an observability registry with the given event-ring
// capacity (0 = default).
func NewMetrics(eventCap int) *Metrics { return obs.NewRegistry(eventCap) }

// Workloads returns the names of the nine Table I workloads.
func Workloads() []string { return workloads.Names() }

// GetWorkload builds a workload spec by registry name.
func GetWorkload(name string) (*Workload, error) { return workloads.Get(name) }

// Options configure a Session.
type Options struct {
	// Version is the TPU generation (default V2).
	Version Version

	// Steps overrides the workload's simulated train-step count.
	Steps int

	// NaivePipeline runs the untuned input pipeline of the paper's naive
	// implementations.
	NaivePipeline bool

	// SmallDataset selects the reduced-dataset variant (Figures 12/13).
	SmallDataset bool

	// Seed overrides the workload's deterministic seed.
	Seed uint64

	// Obs, when set, collects metrics and structured events from every
	// component the session wires together (profiler, analyzer). Nil
	// disables observability at zero cost.
	Obs *obs.Registry
}

// Session owns one training run: the workload, the simulated machine, a
// storage bucket for checkpoints and profile records, and the wiring
// between them.
type Session struct {
	workload *Workload
	runner   *estimator.Runner
	bucket   *storage.Bucket
	trained  bool
	obs      *obs.Registry

	// front is the analyzer front-end of the record set Analyze was last
	// handed and frontOf that set's record pointers: Analyze calls on the
	// same records (one per algorithm, the Figure 2 flow) share one step
	// aggregation, feature matrix and PCA. One entry; analyzing any other
	// set replaces it, which is when the old set's records are let go.
	mu      sync.Mutex
	front   *analyzer.Frontend
	frontOf []*ProfileRecord
}

// NewSession prepares a training session for a named workload.
func NewSession(workloadName string, opts Options) (*Session, error) {
	w, err := workloads.Get(workloadName)
	if err != nil {
		return nil, err
	}
	if opts.SmallDataset {
		if w, err = w.Small(); err != nil {
			return nil, err
		}
	}
	if opts.NaivePipeline {
		w = w.Naive()
	}

	svc := storage.NewService()
	bucket, err := svc.CreateBucket("tpupoint-" + w.Name)
	if err != nil {
		return nil, err
	}
	runner, err := estimator.New(w, estimator.Options{
		Version: opts.Version,
		Steps:   opts.Steps,
		Seed:    opts.Seed,
		Bucket:  bucket,
	})
	if err != nil {
		return nil, err
	}
	return &Session{workload: w, runner: runner, bucket: bucket, obs: opts.Obs}, nil
}

// Workload returns the session's workload spec.
func (s *Session) Workload() *Workload { return s.workload }

// Bucket returns the session's storage bucket (checkpoints, profiles).
func (s *Session) Bucket() *storage.Bucket { return s.bucket }

// StartProfiler attaches a TPUPoint-Profiler to the session and starts
// it. With analyzer=true, records are also persisted to the session
// bucket under "profiles/" for offline analysis — the Figure 2 API.
func (s *Session) StartProfiler(analyzerMode bool) (*profiler.Profiler, error) {
	p := profiler.New(
		&profiler.ServiceClient{Service: s.runner.ProfileService()},
		profiler.Options{Bucket: s.bucket, Obs: s.obs},
	)
	if err := p.Start(analyzerMode); err != nil {
		return nil, err
	}
	return p, nil
}

// StartProfilerTo starts the profiler in analyzer mode but persists
// records into the given store instead of the session bucket — e.g. a
// repo.ResilientClient streaming to a fleet collection server.
// onDegraded, when set, is the profiler's OnDegraded: it is called,
// from a profiler goroutine and without blocking, each time the store
// is left short of a record (a write that failed its retries, after
// which recording falls back to memory only, or one the persist queue
// dropped). Stop still returns every record, so a caller that archives
// the store must check it: a collector session it fired for holds
// fewer records than the run and should be aborted, not finalized.
func (s *Session) StartProfilerTo(store profiler.RecordStore, onDegraded func(error)) (*profiler.Profiler, error) {
	p := profiler.New(
		&profiler.ServiceClient{Service: s.runner.ProfileService()},
		profiler.Options{Bucket: store, Obs: s.obs, OnDegraded: onDegraded},
	)
	if err := p.Start(true); err != nil {
		return nil, err
	}
	return p, nil
}

// Train executes the training run (estimator.train in the paper's code).
func (s *Session) Train() error {
	if s.trained {
		return errors.New("tpupoint: session already trained")
	}
	s.trained = true
	return s.runner.Run()
}

// IdleFraction returns the TPU idle share of the completed run.
func (s *Session) IdleFraction() float64 { return s.runner.IdleFraction() }

// MXUUtilization returns the FLOP-weighted MXU occupancy of the run.
func (s *Session) MXUUtilization() float64 { return s.runner.MXUUtilization() }

// TotalSeconds returns the simulated wall time of the run in seconds.
func (s *Session) TotalSeconds() float64 { return s.runner.TotalTime().Seconds() }

// Analyze runs TPUPoint-Analyzer over profile records with the given
// algorithm, associating phases with the run's checkpoints. Consecutive
// calls with the same records — same length, the same *ProfileRecord at
// every index — reuse the aggregated steps and the PCA-reduced feature
// matrix of the first, so analyzing one run with all three algorithms
// builds them once; the reports equal those of independent calls.
// Records must not be modified after they are first passed in.
func (s *Session) Analyze(records []*ProfileRecord, algo Algorithm) (*Report, error) {
	rep, err := s.frontend(records).Analyze(s.workload.Name, algo,
		analyzer.Options{Seed: s.workload.Seed, Obs: s.obs})
	if err != nil {
		return nil, err
	}
	var cks []analyzer.Checkpoint
	for _, ck := range s.runner.Checkpoints() {
		cks = append(cks, analyzer.Checkpoint{Step: ck.Step, Object: ck.Object})
	}
	analyzer.AssociateCheckpoints(rep.Phases, cks)
	return rep, nil
}

// frontend returns the analyzer front-end for records, the retained one
// when records is the set it was built from.
func (s *Session) frontend(records []*ProfileRecord) *analyzer.Frontend {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.front == nil || !slices.Equal(s.frontOf, records) {
		s.front = analyzer.NewFrontend(trace.AggregateSteps(records))
		s.frontOf = slices.Clone(records)
	}
	return s.front
}

// LoadRecords reads the profile records the profiler persisted to the
// session bucket — the offline-analysis entry point.
func (s *Session) LoadRecords() ([]*ProfileRecord, error) {
	return profiler.LoadRecords(s.bucket)
}

// traceOps is how many of the run's events WriteTrace draws.
const traceOps = 5000

// WriteTrace emits the chrome://tracing visualization of a report plus
// the records it came from (the paper's Figure 3 artifact). Its op tracks
// are the trained run's first traceOps events, read from the run's
// segments; a run still training draws none.
func (s *Session) WriteTrace(w io.Writer, rep *Report, records []*ProfileRecord) error {
	return viz.WriteChromeTrace(w, rep.Phases, records, s.runOps, traceOps)
}

// runOps walks the trained run's events as segments, the whole run as one
// window, which is final only once the run is done.
func (s *Session) runOps(yield func(trace.Segment) bool) {
	if s.runner.Done() {
		s.runner.Segments(0, math.MaxInt64, yield)
	}
}

// WriteCSV emits the CSV phase summary of a report.
func (s *Session) WriteCSV(w io.Writer, rep *Report) error {
	return viz.WriteCSV(w, rep)
}

// ArchiveRun archives a completed run's profile records in r under
// runID, the way every run becomes an archive: through a collector
// session. An in-process repo.Fleet over r, reached over rpc.Pipe, takes
// the records and finalizes them into an indexed archive, the code a
// streamed run's collector runs. The archive embeds the workload name,
// host spec, TPU generation, and an optional free-form label so later
// `runs list`/`runs diff` invocations can locate and compare it. Its
// summary is the collector's, OLS at the default threshold over the
// records, so rep must be nil or an OLS report: any other algorithm is
// refused. The server and the pipe are closed before it returns.
func (s *Session) ArchiveRun(r *repo.Repo, runID, label string, records []*ProfileRecord, rep *Report) (repo.RunInfo, error) {
	if r == nil {
		return repo.RunInfo{}, errors.New("tpupoint: nil repository")
	}
	if rep != nil && rep.Algorithm != OLS {
		return repo.RunInfo{}, fmt.Errorf("tpupoint: an archive's summary is the collector's OLS, not %s", rep.Algorithm)
	}
	srv := rpc.NewServer()
	defer srv.Close()
	repo.NewFleet(r, repo.FleetOptions{}).Register(srv)
	c := rpc.Pipe(srv)
	defer c.Close()
	spec := s.workload.Spec()
	session, err := repo.OpenResilient(c, repo.OpenRequest{
		RunID:      runID,
		Workload:   s.workload.Name,
		Label:      label,
		HostSpec:   fmt.Sprintf("%dc %gMBps", spec.Cores, spec.ReadMBps),
		TPUVersion: s.runner.Spec().Version.String(),
	})
	if err != nil {
		return repo.RunInfo{}, err
	}
	if err := session.AppendBatch(records); err != nil {
		return repo.RunInfo{}, errors.Join(err, session.Abort())
	}
	return session.Finalize()
}

// Resume builds a new session that fast-forwards this session's workload
// to just after one of its saved checkpoints — the paper's
// checkpoint/restart feature: analyze a run, pick a phase, and re-execute
// from that phase's checkpoint "without starting from step zero".
//
// checkpoint is an object name from a Phase's Checkpoint field or from
// the session's checkpoint list; the new session shares this session's
// bucket so the state is available to restore. opts.Steps sets how many
// further training steps to run (the workload default if zero).
func (s *Session) Resume(checkpoint string, opts Options) (*Session, error) {
	if checkpoint == "" {
		return nil, errors.New("tpupoint: empty checkpoint name")
	}
	var startStep int64 = -1
	for _, ck := range s.runner.Checkpoints() {
		if ck.Object == checkpoint {
			startStep = ck.Step + 1
			break
		}
	}
	if startStep < 0 {
		return nil, fmt.Errorf("tpupoint: checkpoint %q was not saved by this session", checkpoint)
	}
	if opts.Version == 0 {
		opts.Version = s.runner.Spec().Version
	}
	runner, err := estimator.New(s.workload, estimator.Options{
		Version:     opts.Version,
		Steps:       opts.Steps,
		Seed:        opts.Seed,
		Bucket:      s.bucket,
		StartStep:   startStep,
		RestoreFrom: checkpoint,
	})
	if err != nil {
		return nil, err
	}
	return &Session{workload: s.workload, runner: runner, bucket: s.bucket, obs: opts.Obs}, nil
}

// OptimizeOptions configure Optimize.
type OptimizeOptions struct {
	Version Version
	Steps   int
	Seed    uint64
	// Naive tunes the paper's naive implementation instead of the
	// hand-tuned reference.
	Naive bool
	// Obs, when set, collects the optimizer's probe/rollback metrics and
	// per-axis move events.
	Obs *obs.Registry
}

// Optimize runs TPUPoint-Optimizer on a named workload and reports the
// speedup and utilization changes against an untuned baseline.
func Optimize(workloadName string, opts OptimizeOptions) (*OptimizeResult, error) {
	w, err := workloads.Get(workloadName)
	if err != nil {
		return nil, err
	}
	if opts.Naive {
		w = w.Naive()
	}
	return optimizer.Optimize(w, optimizer.Options{
		Version: opts.Version,
		Steps:   opts.Steps,
		Seed:    opts.Seed,
		Obs:     opts.Obs,
	})
}

// Describe formats a one-line summary of a workload, Table I style.
func Describe(w *Workload) string {
	return fmt.Sprintf("%-16s %-22s model=%-10s dataset=%s (%.2f MiB, %d records) batch=%d",
		w.Name, w.Task, w.Model, w.Dataset.Name,
		float64(w.Dataset.SizeBytes)/(1<<20), w.Dataset.Records, w.BatchSize)
}
