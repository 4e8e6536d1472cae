package cluster

// The differential oracles for k-means: Lloyd's loop as it ran before the
// assignment step learned to skip distances (lloydOracle), and the
// one-centroid-at-a-time nearest-centroid scan it used before the
// four-wide kernel (nearestOneAtATime). The shipped KMeans must return
// lloydOracle's result and nearest its index and distance, bit for bit,
// because k-means++ seeding and the SSD series flip on last-bit changes.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/prng"
	"repro/internal/tpu"
)

// lloydOracle is Lloyd's algorithm with k-means++ seeding, every row
// compared with every centroid on every pass: KMeans without its bounds,
// budget check and worker pool. The partial sums are still cut at
// parChunk and merged in chunk order, which is the reduction grouping
// KMeans reproduces.
func lloydOracle(m *Matrix, k int, seed uint64) *KMeansResult {
	if k > m.Rows {
		k = m.Rows
	}
	nc := parallel.NumChunks(m.Rows, parChunk)
	pool := parallel.New(1)
	rng := prng.New(seed)
	centroids := seedPlusPlus(m, k, rng, pool)
	assign := make([]int, m.Rows)
	d2 := make([]float64, m.Rows)
	sizes := make([]int, k)
	partSums := make([][]float64, nc)
	partCounts := make([][]int, nc)
	for ci := range partSums {
		partSums[ci] = make([]float64, k*m.Cols)
		partCounts[ci] = make([]int, k)
	}
	chunkChanged := make([]bool, nc)

	var ssd float64
	iterations := 0
	for iter := 0; iter < 200; iter++ {
		iterations = iter + 1
		cur := centroids
		_ = pool.Run(context.Background(), m.Rows, parChunk, func(ci, lo, hi int) error {
			ps := partSums[ci]
			pc := partCounts[ci]
			for i := range ps {
				ps[i] = 0
			}
			for i := range pc {
				pc[i] = 0
			}
			changed := false
			dist := make([]float64, k)
			for i := lo; i < hi; i++ {
				row := m.Row(i)
				best, bestD := nearest(row, cur, dist)
				if assign[i] != best {
					assign[i] = best
					changed = true
				}
				d2[i] = bestD
				pc[best]++
				crow := ps[best*m.Cols : (best+1)*m.Cols]
				for j := range crow {
					crow[j] += row[j]
				}
			}
			chunkChanged[ci] = changed
			return nil
		})
		ssd = 0
		for _, d := range d2 {
			ssd += d
		}
		changed := false
		for _, ch := range chunkChanged {
			changed = changed || ch
		}
		if !changed && iter > 0 {
			break
		}
		next := NewMatrix(k, m.Cols)
		for i := range sizes {
			sizes[i] = 0
		}
		for ci := 0; ci < nc; ci++ {
			pc := partCounts[ci]
			ps := partSums[ci]
			for c := 0; c < k; c++ {
				sizes[c] += pc[c]
				crow := next.Row(c)
				prow := ps[c*m.Cols : (c+1)*m.Cols]
				for j := range crow {
					crow[j] += prow[j]
				}
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				copy(next.Row(c), m.Row(rng.Intn(m.Rows)))
				continue
			}
			crow := next.Row(c)
			for j := range crow {
				crow[j] /= float64(sizes[c])
			}
		}
		centroids = next
	}
	return &KMeansResult{
		K: k, Assignment: assign, Centroids: centroids,
		SSD: ssd, Sizes: sizes, Iterations: iterations,
	}
}

func nearestOneAtATime(row, cents []float64, k int) (int, float64) {
	d := len(row)
	best, bestD := 0, sqDist(row, cents[:d])
	for c := 1; c < k; c++ {
		if dist := sqDist(row, cents[c*d:(c+1)*d]); dist < bestD {
			best, bestD = c, dist
		}
	}
	return best, bestD
}

// sameFloat is bit equality, with any NaN equal to any NaN (the payload of
// an invalid operation is the platform's choice).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestNearestMatchesSqDistScan covers every remainder of the four-wide
// blocking and its tails over random centroids, duplicated centroids
// (exact ties must go to the lowest index), a row that is itself a
// centroid (distance 0 somewhere past the first block), and columns
// holding ±Inf or NaN in the row or in one centroid.
func TestNearestMatchesSqDistScan(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15} {
		for _, d := range []int{1, 3, 4, 5, 100} {
			rng := prng.New(uint64(100*k + d))
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.Normal(0, 2)
			}
			random := make([]float64, k*d)
			for j := range random {
				random[j] = rng.Normal(0, 2)
			}
			check := func(kind string, row, cents []float64) {
				t.Helper()
				got, gotD := nearest(row, &Matrix{Rows: k, Cols: d, Data: cents}, make([]float64, k))
				want, wantD := nearestOneAtATime(row, cents, k)
				if got != want || !sameFloat(gotD, wantD) {
					t.Fatalf("k=%d d=%d %s: nearest = (%d, %x), oracle (%d, %x)", k, d, kind,
						got, math.Float64bits(gotD), want, math.Float64bits(wantD))
				}
			}
			check("random", row, random)

			// Every centroid a copy of one of two points: each distance is
			// tied many times over, in every lane of every block.
			dup := make([]float64, k*d)
			for c := 0; c < k; c++ {
				copy(dup[c*d:(c+1)*d], random[min(c%2, k-1)*d:][:d])
			}
			check("duplicates", row, dup)
			for c := 0; c < k; c++ {
				copy(dup[c*d:(c+1)*d], random[:d])
			}
			check("all-equal", row, dup)

			// The row sits exactly on the last centroid, and on the last
			// two (tie at zero).
			check("on-last", random[(k-1)*d:k*d], random)
			if k > 1 {
				on := append([]float64(nil), random...)
				copy(on[(k-2)*d:(k-1)*d], on[(k-1)*d:])
				check("on-last-two", on[(k-1)*d:], on)
			}

			for _, bad := range []float64{inf, -inf, nan} {
				for _, c := range []int{0, k / 2, k - 1} {
					cents := append([]float64(nil), random...)
					cents[c*d+d/2] = bad
					check(fmt.Sprintf("centroid %d holds %v", c, bad), row, cents)
				}
				badRow := append([]float64(nil), row...)
				badRow[d/2] = bad
				check(fmt.Sprintf("row holds %v", bad), badRow, random)
				// Inf - Inf: the distance to one centroid is NaN, to the
				// others +Inf.
				cents := append([]float64(nil), random...)
				cents[(k-1)*d+d/2] = bad
				check(fmt.Sprintf("row and last centroid hold %v", bad), badRow, cents)
			}
		}
	}
}

// TestSqDistsMatchesSqDist checks the kernel under nearest, the k-means
// candidate scan, the k-means++ seeding and autoEps on its own, bit for
// bit: every list length 0..9 (each mix of four-wide, two-wide and
// one-wide steps) as a contiguous range at every offset, in descending
// order, with every index repeated, and as a random draw with repeats.
func TestSqDistsMatchesSqDist(t *testing.T) {
	rng := prng.New(5)
	for _, d := range []int{1, 3, 4, 5, 100} {
		m := gaussMatrix(12, d, uint64(d)+3)
		x := m.Row(11)
		check := func(kind string, rows []int) {
			t.Helper()
			out := make([]float64, len(rows))
			sqDists(x, m, rows, out)
			for i, r := range rows {
				if want := sqDist(m.Row(r), x); !sameFloat(out[i], want) {
					t.Fatalf("d=%d %s %v: out[%d] = %x, sqDist %x", d, kind, rows, i,
						math.Float64bits(out[i]), math.Float64bits(want))
				}
			}
		}
		for length := 0; length <= 9; length++ {
			for lo := 0; lo <= 3; lo++ {
				check("range", ascending(lo + length)[lo:])
			}
			descending := make([]int, length)
			repeated := make([]int, length)
			drawn := make([]int, length)
			for i := range descending {
				descending[i] = 11 - i
				repeated[i] = 7
				drawn[i] = rng.Intn(m.Rows)
			}
			check("descending", descending)
			check("repeated", repeated)
			check("drawn", drawn)
		}
	}
}

// kmeansDiff describes the first difference between two results, or
// returns "" when they are equal bit for bit: reflect.DeepEqual, except
// that it tells -0 from +0 and, like sameFloat, matches NaN with NaN.
func kmeansDiff(got, want *KMeansResult) string {
	switch {
	case got.K != want.K:
		return fmt.Sprintf("K %d, oracle %d", got.K, want.K)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("%d iterations, oracle %d", got.Iterations, want.Iterations)
	case !slices.Equal(got.Assignment, want.Assignment):
		return "assignments differ"
	case !slices.Equal(got.Sizes, want.Sizes):
		return fmt.Sprintf("sizes %v, oracle %v", got.Sizes, want.Sizes)
	case !sameFloat(got.SSD, want.SSD):
		return fmt.Sprintf("SSD %x, oracle %x", math.Float64bits(got.SSD), math.Float64bits(want.SSD))
	case got.Centroids.Rows != want.Centroids.Rows || got.Centroids.Cols != want.Centroids.Cols:
		return "centroid shapes differ"
	}
	for i, x := range got.Centroids.Data {
		if !sameFloat(x, want.Centroids.Data[i]) {
			return fmt.Sprintf("centroid value %d is %x, oracle %x", i, math.Float64bits(x), math.Float64bits(want.Centroids.Data[i]))
		}
	}
	return ""
}

// tableIMatrices are the matrices the analyzer clusters for the six
// Table I recordings (three workloads on TPUv2 and TPUv3, 300 steps,
// estimator seed 1): standardized features projected by PCA.
func tableIMatrices(tb testing.TB) (names []string, ms []*Matrix) {
	tb.Helper()
	for _, w := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			names = append(names, fmt.Sprintf("%s-%s", w, v))
			ms = append(ms, PCA(realStepMatrix(tb, w, v), MaxFeatureOps, 0))
		}
	}
	return names, ms
}

// edgeMatrices are small inputs full of exact ties and degenerate
// geometry: duplicated rows, all-zero rows, an integer grid, coordinates
// whose squared distances overflow or fall into the subnormals, and rows
// holding NaN and ±Inf at either end of the matrix.
func edgeMatrices() map[string]*Matrix {
	out := map[string]*Matrix{}
	blobs := gaussMatrix(60, 4, 11)
	dup := NewMatrix(300, 4)
	for i := 0; i < dup.Rows; i++ {
		copy(dup.Row(i), blobs.Row(i%blobs.Rows))
	}
	out["duplicates"] = dup
	out["zeros"] = NewMatrix(40, 3)
	grid := NewMatrix(64, 2)
	for i := 0; i < grid.Rows; i++ {
		grid.Set(i, 0, float64(i%8))
		grid.Set(i, 1, float64(i/8))
	}
	out["grid"] = grid
	for name, scale := range map[string]float64{"huge": 1e200, "tiny": 1e-170} {
		s := gaussMatrix(90, 3, 12)
		for i := range s.Data {
			s.Data[i] *= scale
		}
		out[name] = s
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, at := range []int{0, 39} {
		m := gaussMatrix(40, 3, 13)
		copy(m.Row(at), []float64{nan, inf, -inf})
		out[fmt.Sprintf("nan-inf-row-%d", at)] = m
		m = gaussMatrix(40, 3, 13)
		copy(m.Row(at), []float64{1, inf, -inf})
		out[fmt.Sprintf("inf-row-%d", at)] = m
	}
	return out
}

// firstPickSeed returns the lowest seed from which k-means++ draws row as
// its first centroid.
func firstPickSeed(m *Matrix, row int) uint64 {
	for seed := uint64(1); ; seed++ {
		if prng.New(seed).Intn(m.Rows) == row {
			return seed
		}
	}
}

// TestKMeansMatchesLloydOracle: the bounds only skip work, so every
// KMeansResult is lloydOracle's bit for bit — on the matrices the paper's
// k = 1..15 sweep clusters, on three-blob matrices of every sweep row
// count, on edgeMatrices, with and without the non-finite row as a
// seeded centroid, and on a run that reaches the 200-pass cap. The budget
// is charged for the bounds: a run fits exactly at its need and fails 8
// bytes under it.
func TestKMeansMatchesLloydOracle(t *testing.T) {
	check := func(t *testing.T, m *Matrix, k int, seed uint64, workers int) {
		t.Helper()
		got, err := KMeans(m, k, seed, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if diff := kmeansDiff(got, lloydOracle(m, k, seed)); diff != "" {
			t.Fatalf("k=%d seed=%d workers=%d: %s", k, seed, workers, diff)
		}
	}
	names, table := tableIMatrices(t)
	for i, m := range table {
		t.Run(names[i], func(t *testing.T) {
			sweep, err := KMeansSweep(m, 15, 1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for j, got := range sweep {
				k := j + 1
				if diff := kmeansDiff(got, lloydOracle(m, k, 1+uint64(k))); diff != "" {
					t.Fatalf("sweep member k=%d: %s", k, diff)
				}
				check(t, m, k, 100+uint64(k), 1)
			}
		})
	}
	for _, rows := range sweepRows {
		m := gaussMatrix(rows, 8, 79)
		Standardize(m, 0)
		t.Run(fmt.Sprintf("gauss/rows=%d", rows), func(t *testing.T) {
			for k := 1; k <= 15; k++ {
				check(t, m, k, uint64(k), 4)
			}
		})
	}
	for name, m := range edgeMatrices() {
		t.Run(name, func(t *testing.T) {
			for k := 1; k <= 15; k++ {
				for _, seed := range []uint64{1, 2, 3} {
					check(t, m, k, seed, 1)
				}
			}
			for _, row := range []int{0, m.Rows - 1} {
				check(t, m, 5, firstPickSeed(m, row), 1)
			}
		})
	}

	// The points 0..9 999 on a line are still moving after 200 passes at
	// k = 15, seed 1: the returned centroids are one update past the
	// assignment, and SSD is measured against the ones before.
	t.Run("cap", func(t *testing.T) {
		m := NewMatrix(10_000, 1)
		for i := range m.Data {
			m.Data[i] = float64(i)
		}
		if r := lloydOracle(m, 15, 1); r.Iterations != 200 {
			t.Fatalf("the oracle stopped after %d passes, want the cap of 200", r.Iterations)
		}
		check(t, m, 15, 1, 4)
	})

	t.Run("budget", func(t *testing.T) {
		m := gaussMatrix(1100, 6, 14) // three row chunks
		const k = 7
		nc := int64(parallel.NumChunks(m.Rows, parChunk))
		n, d := int64(m.Rows), int64(m.Cols)
		need := m.Bytes() + k*d*8 + n*16 + n*k*8 + k*k*8 + nc*k*(d*8+8)
		got, err := KMeans(m, k, 3, need, 2)
		if err != nil {
			t.Fatalf("at its need of %d bytes: %v", need, err)
		}
		if diff := kmeansDiff(got, lloydOracle(m, k, 3)); diff != "" {
			t.Fatalf("at its need: %s", diff)
		}
		want := fmt.Sprintf("%v: k-means needs %d bytes, budget %d", ErrMemoryBudget, need, need-8)
		if _, err := KMeans(m, k, 3, need-8, 2); !errors.Is(err, ErrMemoryBudget) || err.Error() != want {
			t.Fatalf("8 bytes under its need: err = %v, want %q", err, want)
		}
	})
}

// TestBoundsKeepNearTies puts a row at the rounded midpoint of two
// centroids, where the two computed distances tie or differ only by
// rounding and the half-distance between the centroids is as close to the
// upper bound as it gets. With tight bounds and no drift, whichever
// centroid the row is assigned to, the other must stay a candidate
// whenever its computed distance is no larger: the widening and the prune
// margin are what keep it.
func TestBoundsKeepNearTies(t *testing.T) {
	rng := prng.New(17)
	for _, d := range []int{1, 2, 3, 8, 100} {
		slack := boundSlack + float64(d)*0x1p-52
		b := &bounds{
			k: 2, up: 1 + slack, down: 1 - slack,
			upper: make([]float64, 1), lower: make([]float64, 2),
			half: make([]float64, 4), drift: make([]float64, 2),
		}
		cents := NewMatrix(2, d)
		x := make([]float64, d)
		dist := make([]float64, 2)
		for trial := 0; trial < 3000; trial++ {
			for j := range cents.Data {
				cents.Data[j] = rng.Normal(0, 1)
				if trial%2 == 0 {
					cents.Data[j] = math.Round(8 * cents.Data[j])
				}
			}
			for j := range x {
				x[j] = (cents.At(0, j) + cents.At(1, j)) / 2
			}
			sqDists(x, cents, ascending(2), dist)
			b.moved(cents, cents)
			for a := 0; a < 2; a++ {
				c := 1 - a
				b.set(0, ascending(2), dist, a)
				cand, ok := b.candidates(0, a, make([]int, 2))
				if ok && dist[c] <= dist[a] && !slices.Contains(cand, c) {
					t.Fatalf("d=%d trial %d: assigned to %d, centroid %d (distance %x ≤ %x) pruned",
						d, trial, a, c, math.Float64bits(dist[c]), math.Float64bits(dist[a]))
				}
			}
		}
	}
}

// TestKMeansSweepReturnsLowestFailingK: the members of a sweep run
// concurrently and largest k first, but the error is the one the
// sequential k = 1, 2, ... loop met first. Each member is checked against
// the budget on its own, so a budget that admits k <= 7 fails at k = 8.
func TestKMeansSweepReturnsLowestFailingK(t *testing.T) {
	m := gaussMatrix(300, 10, 5)
	_, want := KMeans(m, 8, 1, 1, 1)
	var budget int64
	if _, err := fmt.Sscanf(want.Error(), ErrMemoryBudget.Error()+": k-means needs %d bytes", &budget); err != nil {
		t.Fatalf("parsing %q: %v", want, err)
	}
	budget-- // k = 8 needs one byte more than this; k <= 7 fit
	_, want = KMeans(m, 8, 1, budget, 1)
	if _, err := KMeans(m, 7, 1, budget, 1); err != nil || !errors.Is(want, ErrMemoryBudget) {
		t.Fatalf("budget %d: k=7 err = %v, k=8 err = %v", budget, err, want)
	}
	for _, w := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			sweep, err := KMeansSweep(m, 15, 1, budget, w)
			if sweep != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("workers=%d: sweep = %v, err = %v; want the k=8 error %q", w, sweep, err, want)
			}
		}
	}
}

// BenchmarkKMeansSweep times the paper's k = 1..15 sweep on three-blob
// matrices of PCA-output width at the paper's scale (300 steps, one row
// chunk) and at 10 000 rows (20 chunks), and on the six Table I PCA
// matrices paper-pipeline clusters ("real", one op sweeps all six), on one
// worker and on the default pool. Every sub-benchmark reports dists/lloyd,
// the distances its assignment passes computed over the n·k a pass Lloyd's
// loop computes; the blobs separate so well that they flatter the bounds,
// and "real" is the figure that matters. The default sub-benchmark also
// reports its time over the one-worker time: it is the guard for "the
// sweep-level fan-out is no slower on large inputs", which no bench/
// workload sees.
func BenchmarkKMeansSweep(b *testing.B) {
	type arm struct {
		name string
		ms   []*Matrix
	}
	var arms []arm
	for _, n := range []int{300, 10_000} {
		m := gaussMatrix(n, 100, uint64(n))
		Standardize(m, 0)
		arms = append(arms, arm{fmt.Sprintf("n=%d", n), []*Matrix{m}})
	}
	_, table := tableIMatrices(b)
	arms = append(arms, arm{"real", table})
	for _, arm := range arms {
		var onePerOp time.Duration
		for _, w := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=default", 0}} {
			b.Run(fmt.Sprintf("%s/%s", arm.name, w.name), func(b *testing.B) {
				evals := distEvals.Load()
				var lloyd int64
				for i := 0; i < b.N; i++ {
					for _, m := range arm.ms {
						sweep, err := KMeansSweep(m, 15, 1, 0, w.workers)
						if err != nil {
							b.Fatal(err)
						}
						for _, r := range sweep {
							lloyd += int64(m.Rows) * int64(r.K) * int64(r.Iterations)
						}
					}
				}
				perOp := b.Elapsed() / time.Duration(b.N)
				b.ReportMetric(float64(distEvals.Load()-evals)/float64(lloyd), "dists/lloyd")
				if w.workers == 1 {
					onePerOp = perOp
				} else if onePerOp > 0 {
					b.ReportMetric(float64(perOp)/float64(onePerOp), "default/1")
				}
			})
		}
	}
}
