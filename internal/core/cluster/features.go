// Package cluster implements the clustering machinery behind
// TPUPoint-Analyzer: step feature-vector construction, PCA dimensionality
// reduction (an orthogonal projection onto the covariance's leading
// eigenvectors, from a direct symmetric eigensolver), k-means with the
// elbow method, and DBSCAN with a minimum-samples sweep — the
// SimPoint-style toolkit of Section IV.
//
// All algorithms operate on a dense feature matrix whose rows are training
// steps and whose columns are per-operator statistics (invocation count
// and total duration per op), exactly the "frequency vector
// representation" the paper builds before clustering.
//
// Each algorithm has one entry point — Features, Standardize, PCA, KMeans,
// KMeansSweep, DBSCAN, DBSCANSweep — and each takes workers, the bound on
// the pool its hot loops fan out over: workers <= 0 means GOMAXPROCS, 1
// runs everything inline on the caller's goroutine. Every output is
// bit-identical for every value of workers (see internal/parallel): a
// fan-out that reduces cuts its rows into parChunk (covChunk for the
// covariance) and merges the per-chunk partials in chunk order, so the
// chunk size is the reduction grouping and part of the contract; a fan-out
// that only fills per-row slots may use any fixed size and the heavy ones
// use slotChunk. A sweep is the parallel level above its members:
// KMeansSweep hands the pool one task per k and each member runs inline.
// PCA's eigendecomposition of the d×d covariance (d ≤ 2·MaxFeatureOps)
// is serial and so the same at any worker count.
//
// KMeans returns Lloyd's result bit for bit while its assignment step
// computes only the distances Elkan's triangle-inequality bounds cannot
// rule out: widened bounds and a pruning margin make every skipped
// distance strictly larger than the kept one, so no tie is skipped (its
// doc has the argument). At the 200-pass cap the returned centroids are
// one update past the returned assignment, as they always were.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// ErrMemoryBudget is returned when a clustering run would exceed the
// configured memory budget — the failure mode the paper reports for
// k-means/DBSCAN on its largest workloads (Table II).
var ErrMemoryBudget = errors.New("cluster: memory budget exceeded")

// MaxFeatureOps caps the operator vocabulary per the paper: "we have at
// most 100 distinct operations for frequency vector representation."
const MaxFeatureOps = 100

// Fixed fan-out chunk sizes. parChunk and covChunk are part of the
// determinism contract: their fan-outs merge per-chunk partials, so the
// chunk boundaries are the floating-point reduction grouping and may
// depend only on the input size. slotChunk is not: a fan-out that only
// writes disjoint per-row slots gives the same bits at any chunk size, so
// it takes a small one that spreads a 300-step run over the pool.
const (
	// parChunk is the row-chunk size of the fan-outs that reduce (k-means
	// assignment/update partials, feature totals), of k-means++ seeding
	// beside them, and of the feature row fill, which is too light per
	// row to gain from a smaller one (measured slower at 32).
	parChunk = 512
	// slotChunk is the row-chunk size of the heavy slot-filling fan-outs:
	// the PCA projection and DBSCAN's 4-NN distances and ε-neighbor lists.
	slotChunk = 32
	// covChunk is the row-chunk size for covariance accumulation, kept
	// larger because each chunk owns a d×d partial matrix.
	covChunk = 4096
)

// Matrix is a dense row-major feature matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Bytes returns the matrix's approximate memory footprint.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 8 }

// Features builds the step × (2·ops) feature matrix from aggregated step
// statistics. Columns come in (count, duration) pairs per operator. If the
// vocabulary exceeds MaxFeatureOps, only the MaxFeatureOps most
// time-consuming operators are kept. The per-operator totals accumulate
// into per-chunk maps merged in chunk order and the row fill writes
// disjoint rows.
func Features(steps []*trace.StepStat, workers int) (*Matrix, []trace.OpKey) {
	if len(steps) == 0 {
		return NewMatrix(0, 0), nil
	}
	pool := parallel.New(workers)
	ctx := context.Background()

	chunkTotals, _ := parallel.Map(pool, ctx, len(steps), parChunk,
		func(ci, lo, hi int) (map[trace.OpKey]float64, error) {
			part := make(map[trace.OpKey]float64)
			for _, s := range steps[lo:hi] {
				for i := range s.Ops {
					part[s.Ops[i].Key()] += float64(s.Ops[i].Total)
				}
			}
			return part, nil
		})
	totals := make(map[trace.OpKey]float64)
	for _, part := range chunkTotals {
		for k, v := range part {
			totals[k] += v
		}
	}

	keys := make([]trace.OpKey, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if totals[keys[i]] != totals[keys[j]] {
			return totals[keys[i]] > totals[keys[j]]
		}
		if keys[i].Device != keys[j].Device {
			return keys[i].Device < keys[j].Device
		}
		return keys[i].Name < keys[j].Name
	})
	if len(keys) > MaxFeatureOps {
		keys = keys[:MaxFeatureOps]
	}
	idx := make(map[trace.OpKey]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	m := NewMatrix(len(steps), 2*len(keys))
	_ = pool.Run(ctx, len(steps), parChunk, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for _, op := range steps[i].Ops {
				j, ok := idx[op.Key()]
				if !ok {
					continue
				}
				row[2*j] = float64(op.Count)
				row[2*j+1] = float64(op.Total)
			}
		}
		return nil
	})
	return m, keys
}

// Standardize rescales each column to zero mean and unit variance in
// place; constant columns become zero. Columns containing non-finite
// values (NaN/Inf — e.g. from corrupted profile records) carry no usable
// signal and are zeroed rather than allowed to poison every downstream
// distance. It returns the matrix for chaining. Columns are independent
// and fan out one per task.
func Standardize(m *Matrix, workers int) *Matrix {
	if m.Rows == 0 || m.Cols == 0 {
		return m
	}
	pool := parallel.New(workers)
	_ = pool.Run(context.Background(), m.Cols, 1, func(ci, lo, hi int) error {
		for j := lo; j < hi; j++ {
			standardizeColumn(m, j)
		}
		return nil
	})
	return m
}

func standardizeColumn(m *Matrix, j int) {
	var mean float64
	finite := true
	for i := 0; i < m.Rows; i++ {
		v := m.At(i, j)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			break
		}
		mean += v
	}
	if !finite || math.IsInf(mean, 0) {
		// NaN guard: a corrupted (or overflowing) column is all noise.
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, 0)
		}
		return
	}
	mean /= float64(m.Rows)
	var variance float64
	for i := 0; i < m.Rows; i++ {
		d := m.At(i, j) - mean
		variance += d * d
	}
	variance /= float64(m.Rows)
	sd := math.Sqrt(variance)
	for i := 0; i < m.Rows; i++ {
		if sd == 0 {
			m.Set(i, j, 0)
		} else {
			m.Set(i, j, (m.At(i, j)-mean)/sd)
		}
	}
}

// sqDist returns the squared Euclidean distance of two vectors.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDists sets out[i] to the squared distance of x to row rows[i] of m,
// for every i in range rows. Four rows advance in lockstep, one
// accumulator each adding its terms in ascending column order — the
// matVec argument: every out is the float64 sqDist returns, but the four
// add chains are independent and overlap in the pipeline instead of
// serializing on one. A two-wide and a one-wide step finish a list that is
// no multiple of four. A caller that wants a contiguous range passes a
// slice of ascending(n).
func sqDists(x []float64, m *Matrix, rows []int, out []float64) {
	d := len(x)
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		r0, r1 := m.Data[rows[i]*d:][:d], m.Data[rows[i+1]*d:][:d]
		r2, r3 := m.Data[rows[i+2]*d:][:d], m.Data[rows[i+3]*d:][:d]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			d0, d1, d2, d3 := r0[j]-xj, r1[j]-xj, r2[j]-xj, r3[j]-xj
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	if i+2 <= len(rows) {
		r0, r1 := m.Data[rows[i]*d:][:d], m.Data[rows[i+1]*d:][:d]
		var s0, s1 float64
		for j, xj := range x {
			d0, d1 := r0[j]-xj, r1[j]-xj
			s0 += d0 * d0
			s1 += d1 * d1
		}
		out[i], out[i+1] = s0, s1
		i += 2
	}
	if i < len(rows) {
		out[i] = sqDist(m.Row(rows[i]), x)
	}
}

// ascendingRows holds 0, 1, 2, ...: the one index list every contiguous
// sqDists caller slices. It only grows, by publishing a longer copy, and
// no published slice is written again, so readers share it freely.
var ascendingRows atomic.Pointer[[]int]

// ascending returns the row indices 0..n-1.
func ascending(n int) []int {
	p := ascendingRows.Load()
	if p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	size := 1024
	if p != nil {
		size = 2 * len(*p)
	}
	grown := make([]int, max(n, size))
	for i := range grown {
		grown[i] = i
	}
	ascendingRows.Store(&grown)
	return grown[:n]
}

// SqDist is the squared Euclidean distance between two equal-length
// vectors — the metric every clustering kernel in this package uses.
// Exported so cross-run phase alignment (internal/repo's diff engine)
// measures phase-signature similarity with the exact same distance the
// analyzer clustered with.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cluster: SqDist dimension mismatch %d != %d", len(a), len(b)))
	}
	return sqDist(a, b)
}

// validateBudget fails if need exceeds budget (budget <= 0 disables).
func validateBudget(need, budget int64, what string) error {
	if budget > 0 && need > budget {
		return fmt.Errorf("%w: %s needs %d bytes, budget %d", ErrMemoryBudget, what, need, budget)
	}
	return nil
}
