package cluster

// The one-centroid-at-a-time nearest-centroid scan Lloyd's assignment step
// used before the four-wide kernel, kept as the differential oracle: the
// shipped nearest must return its index and its distance bit for bit,
// because k-means++ seeding and the SSD series flip on last-bit changes.

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/prng"
)

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

// TestSqDistsMatchesSqDist checks the kernel under nearest, the k-means++
// seeding and autoEps on its own: every range length 0..9 (each mix of
// four-wide, two-wide and one-wide steps) at every offset, bit for bit.
func TestSqDistsMatchesSqDist(t *testing.T) {
	for _, d := range []int{1, 3, 4, 5, 100} {
		m := gaussMatrix(12, d, uint64(d)+3)
		x := m.Row(11)
		for lo := 0; lo <= 3; lo++ {
			for hi := lo; hi <= lo+9; hi++ {
				out := make([]float64, hi-lo)
				sqDists(x, m, lo, hi, out)
				for i := lo; i < hi; i++ {
					if want := sqDist(m.Row(i), x); !sameFloat(out[i-lo], want) {
						t.Fatalf("d=%d [%d,%d): out[%d] = %x, sqDist %x", d, lo, hi, i-lo,
							math.Float64bits(out[i-lo]), math.Float64bits(want))
					}
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

// BenchmarkKMeansSweep times the paper's k = 1..15 sweep on a matrix of
// PCA-output width at the paper's scale (300 steps, one row chunk) and at
// 10 000 rows (20 chunks), on one worker and on the default pool. The
// default sub-benchmark also reports its time over the one-worker time:
// it is the guard for "the sweep-level fan-out is no slower on large
// inputs", which no bench/ workload sees.
func BenchmarkKMeansSweep(b *testing.B) {
	for _, n := range []int{300, 10_000} {
		m := gaussMatrix(n, 100, uint64(n))
		Standardize(m, 0)
		var onePerOp time.Duration
		for _, w := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=default", 0}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, w.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := KMeansSweep(m, 15, 1, 0, w.workers); err != nil {
						b.Fatal(err)
					}
				}
				perOp := b.Elapsed() / time.Duration(b.N)
				if w.workers == 1 {
					onePerOp = perOp
				} else if onePerOp > 0 {
					b.ReportMetric(float64(perOp)/float64(onePerOp), "default/1")
				}
			})
		}
	}
}
