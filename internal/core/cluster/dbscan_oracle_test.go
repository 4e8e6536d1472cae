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
		eps = autoEps(m, parallel.New(1))
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
	labels := expand(neighbors, minPts)
	noise := 0
	for _, l := range labels {
		if l == Noise {
			noise++
		}
	}
	clusters := 0
	for _, l := range labels {
		if l >= clusters {
			clusters = l + 1
		}
	}
	return &DBSCANResult{
		MinPts: minPts, Eps: eps, Labels: labels,
		Clusters: clusters, NoiseCount: noise,
	}, nil
}

// BenchmarkDBSCAN times the grid-indexed DBSCAN against the brute oracle
// at one fixed eps, on step-feature-like geometry: full-scale noise on
// the three leading coordinates and near-degenerate noise on the rest,
// which is what PCA-projected step features look like and the regime the
// grid prunes in.
func BenchmarkDBSCAN(b *testing.B) {
	const minPts = 8
	for _, n := range []int{1_000, 10_000} {
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
