package cluster

// Differential tests for the parallel phase-detection hot path: every
// entry point must produce bit-identical output for any worker count
// (the fixed-chunk determinism contract), a sweep member must equal the
// direct run, and the grid-indexed DBSCAN must reproduce the brute-force
// oracle (dbscan_oracle_test.go) exactly.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// diffSizes are the row counts the differential suite sweeps. 1e4 runs
// only without -short to keep the race-enabled suite quick.
func diffSizes(t *testing.T) []int {
	if testing.Short() {
		return []int{10, 1000}
	}
	return []int{10, 1000, 10000}
}

// workerGrid is the parallelism sweep from the acceptance criteria.
func workerGrid() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// gaussMatrix builds an n×dims matrix of three Gaussian blobs.
func gaussMatrix(n, dims int, seed uint64) *Matrix {
	rng := prng.New(seed)
	m := NewMatrix(n, dims)
	centers := [3]float64{0, 20, -20}
	for i := 0; i < n; i++ {
		c := centers[i%3]
		row := m.Row(i)
		for j := range row {
			row[j] = c + rng.Normal(0, 1)
			c = -c // alternate so blobs separate in every dimension
		}
	}
	return m
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestKMeansParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		m := gaussMatrix(n, 8, uint64(n))
		var ref *KMeansResult
		for _, w := range workerGrid() {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				r, err := KMeans(m, 5, 42, 0, w)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = r
					return
				}
				if r.SSD != ref.SSD {
					t.Fatalf("SSD %v != serial %v", r.SSD, ref.SSD)
				}
				if r.Iterations != ref.Iterations {
					t.Fatalf("iterations %d != serial %d", r.Iterations, ref.Iterations)
				}
				for i := range r.Assignment {
					if r.Assignment[i] != ref.Assignment[i] {
						t.Fatalf("assignment[%d] = %d != serial %d", i, r.Assignment[i], ref.Assignment[i])
					}
				}
				if !matricesEqual(r.Centroids, ref.Centroids) {
					t.Fatal("centroids differ from serial run")
				}
			})
		}
	}
}

func TestDBSCANParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		m := gaussMatrix(n, 8, uint64(n)+100)
		var ref *DBSCANResult
		for _, w := range workerGrid() {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				r, err := DBSCAN(m, 5, 0, 0, w)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = r
					return
				}
				if r.Eps != ref.Eps {
					t.Fatalf("eps %v != serial %v", r.Eps, ref.Eps)
				}
				if r.Clusters != ref.Clusters || r.NoiseCount != ref.NoiseCount {
					t.Fatalf("clusters/noise %d/%d != serial %d/%d",
						r.Clusters, r.NoiseCount, ref.Clusters, ref.NoiseCount)
				}
				for i := range r.Labels {
					if r.Labels[i] != ref.Labels[i] {
						t.Fatalf("label[%d] = %d != serial %d", i, r.Labels[i], ref.Labels[i])
					}
				}
			})
		}
	}
}

// TestDBSCANGridMatchesBrute: the spatial index is an exact optimization —
// labels must match the legacy O(n²) implementation bit for bit (same
// auto-eps too, at sizes below the sampling cap).
func TestDBSCANGridMatchesBrute(t *testing.T) {
	for _, n := range []int{10, 300, 1000} {
		for _, minPts := range []int{2, 5, 20} {
			m := gaussMatrix(n, 8, uint64(n)*7+uint64(minPts))
			grid, err := DBSCAN(m, minPts, 0, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := dbscanBrute(m, minPts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if grid.Eps != brute.Eps {
				t.Fatalf("n=%d minPts=%d: eps %v != brute %v", n, minPts, grid.Eps, brute.Eps)
			}
			if grid.Clusters != brute.Clusters || grid.NoiseCount != brute.NoiseCount {
				t.Fatalf("n=%d minPts=%d: clusters/noise %d/%d != brute %d/%d",
					n, minPts, grid.Clusters, grid.NoiseCount, brute.Clusters, brute.NoiseCount)
			}
			for i := range grid.Labels {
				if grid.Labels[i] != brute.Labels[i] {
					t.Fatalf("n=%d minPts=%d: label[%d] = %d, brute %d",
						n, minPts, i, grid.Labels[i], brute.Labels[i])
				}
			}
		}
	}
}

// TestGridNeighborsMatchBrute checks the index at the neighbor-list level,
// including tie distances exactly at eps.
func TestGridNeighborsMatchBrute(t *testing.T) {
	m := gaussMatrix(400, 2, 9)
	eps := 1.5
	g := newGridIndex(m, eps)
	eps2 := eps * eps
	for i := 0; i < m.Rows; i++ {
		got := g.neighbors(i, nil)
		var want []int32
		for j := 0; j < m.Rows; j++ {
			if i != j && sqDist(m.Row(i), m.Row(j)) <= eps2 {
				want = append(want, int32(j))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %d: %d neighbors, brute %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("point %d: neighbors[%d] = %d, brute %d", i, k, got[k], want[k])
			}
		}
	}
}

func TestPCAParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		m := gaussMatrix(n, 12, uint64(n)+200)
		Standardize(m, 0)
		var ref *Matrix
		for _, w := range workerGrid() {
			out := PCA(m, 3, w)
			if ref == nil {
				ref = out
				continue
			}
			if !matricesEqual(out, ref) {
				t.Fatalf("n=%d workers=%d: PCA output differs from serial", n, w)
			}
		}
	}
}

func TestStandardizeParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		var ref *Matrix
		for _, w := range workerGrid() {
			m := gaussMatrix(n, 10, uint64(n)+300)
			Standardize(m, w)
			if ref == nil {
				ref = m
				continue
			}
			if !matricesEqual(m, ref) {
				t.Fatalf("n=%d workers=%d: standardized matrix differs from serial", n, w)
			}
		}
	}
}

func TestFeaturesParallelismInvariant(t *testing.T) {
	steps := syntheticSteps(500, 40)
	var refM *Matrix
	var refKeys []trace.OpKey
	for _, w := range workerGrid() {
		m, keys := Features(steps, w)
		if refM == nil {
			refM, refKeys = m, keys
			continue
		}
		if len(keys) != len(refKeys) {
			t.Fatalf("workers=%d: %d keys, serial %d", w, len(keys), len(refKeys))
		}
		for i := range keys {
			if keys[i] != refKeys[i] {
				t.Fatalf("workers=%d: keys[%d] = %v, serial %v", w, i, keys[i], refKeys[i])
			}
		}
		if !matricesEqual(m, refM) {
			t.Fatalf("workers=%d: feature matrix differs from serial", w)
		}
	}
}

// sweepRows are the row counts the sweep tests run at: below one
// slotChunk, a single parChunk (the paper's 300-step scale, where only the
// sweep-level fan-out can use the pool), and two and four parChunks.
var sweepRows = []int{1, 7, 300, 600, 2000}

// TestSweepsParallelismInvariant covers the composed analyzer paths:
// every member of a sweep is identical at every worker count.
func TestSweepsParallelismInvariant(t *testing.T) {
	for _, rows := range sweepRows {
		m := gaussMatrix(rows, 8, 77)
		Standardize(m, 0)
		var refK []*KMeansResult
		var refD []*DBSCANResult
		for _, w := range append(workerGrid(), 8) {
			ks, err := KMeansSweep(m, 8, 1, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := DBSCANSweep(m, 80, 25, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			if refK == nil {
				refK, refD = ks, ds
				continue
			}
			if !reflect.DeepEqual(ks, refK) {
				t.Fatalf("rows=%d workers=%d: k-means sweep differs from serial", rows, w)
			}
			if !reflect.DeepEqual(ds, refD) {
				t.Fatalf("rows=%d workers=%d: DBSCAN sweep differs from serial", rows, w)
			}
		}
	}
}

// TestSweepMembersEqualDirectRuns pins what lets the analyzer take its
// clustering out of the sweep instead of running it again: member k of
// KMeansSweep is KMeans at seed+k, and every member of DBSCANSweep is
// DBSCAN at that min-samples with eps chosen automatically.
func TestSweepMembersEqualDirectRuns(t *testing.T) {
	for _, rows := range sweepRows {
		m := gaussMatrix(rows, 8, 78)
		Standardize(m, 0)
		for _, w := range []int{1, 4} {
			sweepMembersEqualDirectRuns(t, m, w)
		}
	}
}

func sweepMembersEqualDirectRuns(t *testing.T, m *Matrix, w int) {
	const seed = 9
	at := fmt.Sprintf("rows=%d workers=%d", m.Rows, w)
	ks, err := KMeansSweep(m, 8, seed, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 8 {
		t.Fatalf("%s: k-means sweep has %d members, want 8", at, len(ks))
	}
	for i, got := range ks {
		k := i + 1
		want, err := KMeans(m, k, seed+uint64(k), 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sweep member k=%d differs from the direct run", at, k)
		}
	}
	ds, err := DBSCANSweep(m, 80, 25, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("%s: DBSCAN sweep has %d members, want 4", at, len(ds))
	}
	for i, got := range ds {
		// Direct runs with eps chosen automatically and with the
		// sweep's eps handed in: the shared neighbor pass must not
		// show in any member.
		for _, eps := range []float64{0, ds[0].Eps} {
			want, err := DBSCAN(m, 5+25*i, eps, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sweep member minPts=%d differs from the direct run at eps=%g", at, want.MinPts, eps)
			}
		}
	}

	// The sweep charges the neighbor lists against the budget once,
	// like one direct run: the tightest budget a direct run passes is
	// passed by the sweep with the same members, and four bytes less
	// fails both with ErrMemoryBudget.
	_, neighbors, err := epsNeighbors(m, 0, 0, w, slotChunk)
	if err != nil {
		t.Fatal(err)
	}
	tight := tightBudget(neighbors)
	if _, err := DBSCAN(m, 5, 0, tight, w); err != nil {
		t.Fatalf("%s: direct run at its exact budget: %v", at, err)
	}
	budgeted, err := DBSCANSweep(m, 80, 25, tight, w)
	if err != nil {
		t.Fatalf("%s: sweep at the budget one direct run passes: %v", at, err)
	}
	if !reflect.DeepEqual(budgeted, ds) {
		t.Fatalf("%s: budgeted sweep differs from the unbudgeted one", at)
	}
	if _, err := DBSCAN(m, 5, 0, tight-4, w); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("%s: direct run under budget: err = %v", at, err)
	}
	if _, err := DBSCANSweep(m, 80, 25, tight-4, w); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("%s: sweep under budget: err = %v", at, err)
	}
}

// tightBudget is the smallest budget a DBSCAN with these neighbor lists
// passes: the per-point base cost plus four bytes a list entry.
func tightBudget(neighbors [][]int32) int64 {
	tight := int64(len(neighbors)) * dbscanBaseBytes
	for _, nb := range neighbors {
		tight += 4 * int64(len(nb))
	}
	return tight
}

// TestAutoEpsAndNeighborsChunkInvariant: DBSCAN's two fan-outs only fill
// per-row slots, so their chunk size is free — eps and every neighbor list
// are the same at one row a task, at slotChunk and at parChunk, below and
// above autoEps's sampling cap, and the budget verdict does not depend on
// which task's addition crosses the limit.
func TestAutoEpsAndNeighborsChunkInvariant(t *testing.T) {
	for _, rows := range []int{1, 7, 300, 2000, autoEpsMaxSample + 500} {
		m := gaussMatrix(rows, 8, uint64(rows)+5)
		Standardize(m, 0)
		refEps, refN, err := epsNeighbors(m, 0, 0, 1, parChunk)
		if err != nil {
			t.Fatal(err)
		}
		tight := tightBudget(refN)
		for _, chunk := range []int{1, slotChunk, parChunk} {
			for _, w := range workerGrid() {
				eps, neighbors, err := epsNeighbors(m, 0, tight, w, chunk)
				if err != nil {
					t.Fatalf("rows=%d chunk=%d workers=%d at the exact budget: %v", rows, chunk, w, err)
				}
				if eps != refEps || !reflect.DeepEqual(neighbors, refN) {
					t.Fatalf("rows=%d chunk=%d workers=%d: eps %v (want %v) or the neighbor lists differ", rows, chunk, w, eps, refEps)
				}
				if _, _, err := epsNeighbors(m, 0, tight-4, w, chunk); !errors.Is(err, ErrMemoryBudget) {
					t.Fatalf("rows=%d chunk=%d workers=%d four bytes under: err = %v", rows, chunk, w, err)
				}
			}
		}
	}
}

// syntheticSteps builds aggregated step stats with a rotating op
// vocabulary, for feature-extraction tests.
func syntheticSteps(n, vocab int) []*trace.StepStat {
	rng := prng.New(123)
	steps := make([]*trace.StepStat, n)
	for i := range steps {
		s := trace.NewStepStat(int64(i))
		for j := 0; j < 12; j++ {
			op := (i*7 + j*j) % vocab
			s.Observe(trace.Event{
				Name:   fmt.Sprintf("op%03d", op),
				Device: trace.TPU,
				Start:  0,
				Dur:    1 + simclock.Duration(rng.Intn(500)),
				Step:   int64(i),
			})
		}
		steps[i] = s
	}
	return steps
}
