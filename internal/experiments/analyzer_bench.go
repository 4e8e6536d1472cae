package experiments

// The analyzer benchmark harness behind `paperbench -analyzer-bench` and
// `scripts/benchdiff.sh`: it times the phase-detection kernels (k-means,
// DBSCAN, PCA) serial vs parallel on synthetic step-feature matrices and
// emits the machine-readable BENCH_analyzer.json that CI tracks across
// PRs. (The grid-vs-brute DBSCAN ratio is measured next to the brute
// oracle, by BenchmarkDBSCAN in internal/core/cluster.)

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core/cluster"
	"repro/internal/prng"
)

// AnalyzerBenchSizes is the default row-count sweep: the step counts the
// acceptance benchmarks track across PRs.
var AnalyzerBenchSizes = []int{1_000, 10_000, 100_000}

// AnalyzerBenchEntry is one timed kernel configuration.
type AnalyzerBenchEntry struct {
	Kernel      string  `json:"kernel"` // kmeans | dbscan | pca | archive_* | wire_*
	Mode        string  `json:"mode"`   // serial | parallel | pooled
	N           int     `json:"n"`      // rows (steps) clustered, or records coded
	Workers     int     `json:"workers"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// AllocsPerOp is the heap-allocation count per operation (Mallocs
	// delta across the run / iterations). Only the codec kernels report
	// it; zero means "not measured" and is omitted from the JSON.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// AnalyzerBenchReport is the BENCH_analyzer.json document (and, with the
// clustering-only fields omitted, the BENCH_archive.json document).
type AnalyzerBenchReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// Dims, K and MinPts describe the clustering geometry; codec reports
	// (archive/wire kernels) have no clustering and omit them.
	Dims    int                  `json:"dims,omitempty"`
	K       int                  `json:"kmeans_k,omitempty"`
	MinPts  int                  `json:"dbscan_min_pts,omitempty"`
	Quick   bool                 `json:"quick"`
	Entries []AnalyzerBenchEntry `json:"entries"`
	// Speedups derives the headline ratios, keyed
	// "<kernel>_parallel_vs_serial_n<N>".
	Speedups map[string]float64 `json:"speedups"`
}

// RunAnalyzerBench times the clustering kernels at the given sizes.
// workers bounds the parallel runs (0 = GOMAXPROCS); quick shortens the
// measurement window, which is what CI's smoke run wants.
func RunAnalyzerBench(sizes []int, workers int, quick bool) (*AnalyzerBenchReport, error) {
	if len(sizes) == 0 {
		sizes = AnalyzerBenchSizes
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const (
		dims   = 8
		k      = 5
		minPts = 8
	)
	minTime := 500 * time.Millisecond
	if quick {
		minTime = 100 * time.Millisecond
	}
	rep := &AnalyzerBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dims:       dims, K: k, MinPts: minPts,
		Quick:    quick,
		Speedups: map[string]float64{},
	}

	for _, n := range sizes {
		m := benchBlobs(n, dims, uint64(n))
		cluster.Standardize(m, workers)

		// One untimed DBSCAN picks eps so the timed runs measure
		// clustering, not the eps heuristic, and all variants share the
		// exact same radius.
		probe, err := cluster.DBSCAN(m, minPts, 0, 0, workers)
		if err != nil {
			return nil, fmt.Errorf("analyzer-bench: eps probe n=%d: %w", n, err)
		}
		eps := probe.Eps

		type kernelRun struct {
			kernel  string
			mode    string
			workers int
			fn      func() error
		}
		runs := []kernelRun{
			{kernel: "kmeans", mode: "serial", workers: 1, fn: func() error {
				_, err := cluster.KMeans(m, k, 42, 0, 1)
				return err
			}},
			{kernel: "kmeans", mode: "parallel", workers: workers, fn: func() error {
				_, err := cluster.KMeans(m, k, 42, 0, workers)
				return err
			}},
			{kernel: "pca", mode: "serial", workers: 1, fn: func() error {
				cluster.PCA(m, 3, 1)
				return nil
			}},
			{kernel: "pca", mode: "parallel", workers: workers, fn: func() error {
				cluster.PCA(m, 3, workers)
				return nil
			}},
			{kernel: "dbscan", mode: "serial", workers: 1, fn: func() error {
				_, err := cluster.DBSCAN(m, minPts, eps, 0, 1)
				return err
			}},
			{kernel: "dbscan", mode: "parallel", workers: workers, fn: func() error {
				_, err := cluster.DBSCAN(m, minPts, eps, 0, workers)
				return err
			}},
		}
		for _, r := range runs {
			iters, nsPerOp, err := measure(minTime, r.fn)
			if err != nil {
				return nil, fmt.Errorf("analyzer-bench: %s/%s n=%d: %w", r.kernel, r.mode, n, err)
			}
			rep.Entries = append(rep.Entries, AnalyzerBenchEntry{
				Kernel: r.kernel, Mode: r.mode, N: n, Workers: r.workers,
				Iters: iters, NsPerOp: nsPerOp,
				StepsPerSec: float64(n) * 1e9 / nsPerOp,
			})
		}
		rep.deriveSpeedups(n)
	}
	return rep, nil
}

func (r *AnalyzerBenchReport) find(kernel, mode string, n int) *AnalyzerBenchEntry {
	for i := range r.Entries {
		e := &r.Entries[i]
		if e.Kernel == kernel && e.Mode == mode && e.N == n {
			return e
		}
	}
	return nil
}

func (r *AnalyzerBenchReport) deriveSpeedups(n int) {
	for _, kernel := range []string{"kmeans", "pca", "dbscan"} {
		s := r.find(kernel, "serial", n)
		p := r.find(kernel, "parallel", n)
		if s != nil && p != nil && p.NsPerOp > 0 {
			r.Speedups[fmt.Sprintf("%s_parallel_vs_serial_n%d", kernel, n)] = s.NsPerOp / p.NsPerOp
		}
	}
}

// measure times fn adaptively: at least one run, then until minTime of
// cumulative work.
func measure(minTime time.Duration, fn func() error) (int, float64, error) {
	iters := 0
	var total time.Duration
	for total < minTime || iters == 0 {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		total += time.Since(start)
		iters++
	}
	return iters, float64(total.Nanoseconds()) / float64(iters), nil
}

// measureAllocs is measure plus a heap-allocation count per iteration
// (global Mallocs delta, so allocations made by worker goroutines the
// kernel fans out to are honestly included). The MemStats reads sit
// outside the timed window, so ns/op is comparable with measure's.
func measureAllocs(minTime time.Duration, fn func() error) (int, float64, float64, error) {
	var ms runtime.MemStats
	iters := 0
	var total time.Duration
	var mallocs uint64
	for total < minTime || iters == 0 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
		total += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		iters++
	}
	return iters, float64(total.Nanoseconds()) / float64(iters),
		float64(mallocs) / float64(iters), nil
}

// benchBlobs builds an n×dims matrix of three Gaussian blobs with low
// intrinsic dimensionality: full-scale noise on the leading three
// coordinates and near-degenerate noise on the rest. That mirrors what
// the analyzer actually clusters — PCA-projected step features, where
// the variance concentrates in the leading components — and it is the
// regime the spatial grid index targets. (With isotropic noise in all
// dims the eps ball's bounding cube covers most of a blob and no exact
// index can prune.)
func benchBlobs(n, dims int, seed uint64) *cluster.Matrix {
	rng := prng.New(seed)
	m := cluster.NewMatrix(n, dims)
	centers := [3]float64{0, 20, -20}
	for i := 0; i < n; i++ {
		c := centers[i%3]
		row := m.Row(i)
		for j := range row {
			sigma := 1.0
			if j >= maxBenchIntrinsicDims {
				sigma = 0.05
			}
			row[j] = c + rng.Normal(0, sigma)
			c = -c
		}
	}
	return m
}

// maxBenchIntrinsicDims is how many leading columns of the synthetic
// step-feature matrix carry full-scale within-phase noise.
const maxBenchIntrinsicDims = 3
