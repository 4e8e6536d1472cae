package cluster

// The O(n²) DBSCAN the grid index replaced, kept as the differential
// oracle: TestDBSCANGridMatchesBrute requires the shipped DBSCAN to
// reproduce its labels, cluster count, noise count and auto-eps bit for
// bit, and BenchmarkDBSCAN measures what the index buys.

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/prng"
)

// dbscanBrute clusters m by testing every pair of points against eps
// (eps <= 0 selects it automatically, as DBSCAN does).
func dbscanBrute(m *Matrix, minPts int, eps float64) (*DBSCANResult, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	n := m.Rows
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty matrix")
	}
	if eps <= 0 {
		eps = autoEps(m, parallel.New(1), slotChunk)
	}
	eps2 := eps * eps

	neighbors := make([][]int32, n)
	for i := 0; i < n; i++ {
		ri := m.Row(i)
		for j := i + 1; j < n; j++ {
			if sqDist(ri, m.Row(j)) <= eps2 {
				neighbors[i] = append(neighbors[i], int32(j))
				neighbors[j] = append(neighbors[j], int32(i))
			}
		}
	}
	return clusterAt(neighbors, minPts, eps), nil
}

// stepLikeMatrix is the benchmarks' step-feature-like geometry: three
// blobs with full-scale noise on the three leading coordinates and
// near-degenerate noise on the rest, which is what PCA-projected step
// features look like and the regime the grid prunes in.
func stepLikeMatrix(n int) *Matrix {
	rng := prng.New(uint64(n))
	m := NewMatrix(n, 8)
	centers := [3]float64{0, 20, -20}
	for i := 0; i < n; i++ {
		c := centers[i%3]
		for j := 0; j < m.Cols; j++ {
			sigma := 1.0
			if j >= maxGridDims {
				sigma = 0.05
			}
			m.Set(i, j, c+rng.Normal(0, sigma))
			c = -c
		}
	}
	Standardize(m, 0)
	return m
}

// BenchmarkDBSCAN times the grid-indexed DBSCAN against the brute oracle
// at one fixed eps.
func BenchmarkDBSCAN(b *testing.B) {
	const minPts = 8
	for _, n := range []int{1_000, 10_000} {
		m := stepLikeMatrix(n)
		probe, err := DBSCAN(m, minPts, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DBSCAN(m, minPts, probe.Eps, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dbscanBrute(m, minPts, probe.Eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDBSCANSweep times the paper's 8-point min-samples sweep, which
// builds the ε-neighbor lists once, against one direct DBSCAN per grid
// point with the first member's eps reused (what a sweep costs without
// sharing them; the members are identical,
// TestSweepMembersEqualDirectRuns).
func BenchmarkDBSCANSweep(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		m := stepLikeMatrix(n)
		b.Run(fmt.Sprintf("sweep/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DBSCANSweep(m, 180, 25, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eps := 0.0
				for p := 5; p <= 180; p += 25 {
					r, err := DBSCAN(m, p, eps, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					eps = r.Eps
				}
			}
		})
	}
}
