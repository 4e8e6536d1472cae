// Package cluster implements the clustering machinery behind
// TPUPoint-Analyzer: step feature-vector construction, PCA dimensionality
// reduction, k-means with the elbow method, and DBSCAN with a
// minimum-samples sweep — the SimPoint-style toolkit of Section IV.
//
// All algorithms operate on a dense feature matrix whose rows are training
// steps and whose columns are per-operator statistics (invocation count
// and total duration per op), exactly the "frequency vector
// representation" the paper builds before clustering.
//
// Each algorithm has one entry point — Features, Standardize, PCA, KMeans,
// KMeansSweep, DBSCAN, DBSCANSweep — and each takes workers, the bound on
// the pool its hot loops fan out over: workers <= 0 means GOMAXPROCS, 1
// runs everything inline on the caller's goroutine. Chunk boundaries are
// fixed by the input size and reductions merge in chunk order, so every
// output is bit-identical for every value of workers — see
// internal/parallel.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

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

// Fixed fan-out chunk sizes. These are part of the determinism contract:
// chunk boundaries — and therefore reduction grouping — depend only on
// the input size, never on the worker count or the machine.
const (
	// parChunk is the row-chunk size for per-row fan-outs.
	parChunk = 512
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
