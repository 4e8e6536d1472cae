package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
)

// Noise is the DBSCAN label for unclustered points.
const Noise = -1

// DBSCANResult holds one DBSCAN clustering.
type DBSCANResult struct {
	MinPts     int
	Eps        float64
	Labels     []int // cluster id per row, Noise for outliers
	Clusters   int
	NoiseCount int
}

// NoiseRatio returns the fraction of unlabeled (noise) points — the metric
// the paper sweeps in Figure 5.
func (r *DBSCANResult) NoiseRatio() float64 {
	if len(r.Labels) == 0 {
		return 0
	}
	return float64(r.NoiseCount) / float64(len(r.Labels))
}

// dbscanBaseBytes is the per-point cost of the always-allocated DBSCAN
// structures: label (8), visited flag (1), cell key (24), cell-list entry
// (4), neighbor-list header (24), rounded up for map overhead.
const dbscanBaseBytes = 64

// DBSCAN clusters the matrix with the classic density algorithm, using a
// spatial grid index for the eps-neighborhood queries (exact — the labels
// match the brute-force scan bit for bit). eps <= 0 selects it
// automatically from the 4-NN distance distribution. budget bounds the
// working memory, including the density-dependent neighbor lists (0
// disables the check). The neighbor queries fan out into disjoint
// per-point slots and the cluster expansion consumes them in a fixed
// order.
func DBSCAN(m *Matrix, minPts int, eps float64, budget int64, workers int) (*DBSCANResult, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	eps, neighbors, err := epsNeighbors(m, eps, budget, workers, slotChunk)
	if err != nil {
		return nil, err
	}
	return clusterAt(neighbors, minPts, eps), nil
}

// epsNeighbors is the part of DBSCAN that depends only on ε: it picks ε
// when eps <= 0, bins the points into the grid index and materializes
// every point's ε-neighbor list (ascending), charging the lists against
// budget as they appear. min-samples only decides which of these lists
// make a core point, so a sweep over min-samples builds them once. chunk is
// the row-chunk size of its two fan-outs, which only write per-row slots:
// no output depends on it, and callers pass slotChunk.
func epsNeighbors(m *Matrix, eps float64, budget int64, workers, chunk int) (float64, [][]int32, error) {
	n := m.Rows
	if n == 0 {
		return 0, nil, fmt.Errorf("cluster: empty matrix")
	}
	need := int64(n) * dbscanBaseBytes
	if err := validateBudget(need, budget, "dbscan"); err != nil {
		return 0, nil, err
	}
	pool := parallel.New(workers)
	if eps <= 0 {
		eps = autoEps(m, pool, chunk)
	}

	grid := newGridIndex(m, eps)

	// Neighbor lists grow with density; account for them against the
	// budget as they materialize. entryLimit is in int32 entries.
	entryLimit := int64(math.MaxInt64)
	if budget > 0 {
		entryLimit = (budget - need) / 4
	}
	var entries atomic.Int64
	neighbors := make([][]int32, n)
	err := pool.Run(context.Background(), n, chunk, func(ci, lo, hi int) error {
		var local int64
		var sc neighborScratch
		for i := lo; i < hi; i++ {
			neighbors[i] = grid.neighbors(i, &sc)
			local += int64(len(neighbors[i]))
		}
		if entries.Add(local) > entryLimit {
			return fmt.Errorf("%w: dbscan neighbor lists exceed %d bytes", ErrMemoryBudget, budget)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return eps, neighbors, nil
}

// clusterAt grows the clusters of one min-samples value over the shared
// neighbor lists and counts clusters and noise.
func clusterAt(neighbors [][]int32, minPts int, eps float64) *DBSCANResult {
	labels := expand(neighbors, minPts)
	noise, clusters := 0, 0
	for _, l := range labels {
		if l == Noise {
			noise++
		}
		if l >= clusters {
			clusters = l + 1
		}
	}
	return &DBSCANResult{
		MinPts: minPts, Eps: eps, Labels: labels,
		Clusters: clusters, NoiseCount: noise,
	}
}

// expand runs the sequential cluster-growing pass over precomputed
// neighbor lists. With each list ascending, the visit order — and thus
// the labeling — is identical to the classic textbook algorithm.
func expand(neighbors [][]int32, minPts int) []int {
	n := len(neighbors)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	cluster := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		if len(neighbors[i])+1 < minPts {
			continue // not a core point (may later be claimed as border)
		}
		// Expand a new cluster from this core point.
		labels[i] = cluster
		queue := append([]int32(nil), neighbors[i]...)
		for qi := 0; qi < len(queue); qi++ {
			p := int(queue[qi])
			if labels[p] == Noise {
				labels[p] = cluster // border or core point joins
			}
			if visited[p] {
				continue
			}
			visited[p] = true
			if len(neighbors[p])+1 >= minPts {
				queue = append(queue, neighbors[p]...)
			}
		}
		cluster++
	}
	return labels
}

// autoEpsMaxSample caps the number of rows whose exact 4-NN distance the
// eps heuristic computes. Above the cap a deterministic stride-subsample
// stands in for the full population; each sampled row is still measured
// against every row, so the per-row statistic stays exact.
const autoEpsMaxSample = 2048

// autoEps picks ε as the 90th percentile of 4-NN distances — a standard
// heuristic that keeps the bulk of a dense phase connected while leaving
// genuinely unusual steps as noise. The per-row scans fan out across the
// pool; results are written to disjoint slots, so the choice is
// deterministic for every worker count.
//
// A row's scan walks every row in blocks of four through sqDistsWithin,
// bounded by the running 4th-smallest squared distance: a block whose
// four partial sums have all passed it cannot change the four smallest,
// and each candidate enters only if strictly below that 4th, so the
// result is the full scan's bit for bit (autoEpsOracle in
// dbscan_oracle_test.go). A NaN distance is never a candidate.
func autoEps(m *Matrix, pool *parallel.Pool, chunk int) float64 {
	n := m.Rows
	if n < 2 {
		return 1
	}
	stride := 1
	count := n
	if n > autoEpsMaxSample {
		stride = (n + autoEpsMaxSample - 1) / autoEpsMaxSample
		count = (n + stride - 1) / stride
	}
	const kth = 4
	kdist := make([]float64, count)
	all := ascending(n)
	_ = pool.Run(context.Background(), count, chunk, func(ci, lo, hi int) error {
		var block [4]float64
		for s := lo; s < hi; s++ {
			i := s * stride
			row := m.Row(i)
			// Running top-4 smallest squared distances (ascending).
			best := [kth]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
			for b := 0; b < n; b += len(block) {
				rows := all[b:min(b+len(block), n)]
				dist := block[:len(rows)]
				sqDistsWithin(row, m, rows, best[kth-1], dist)
				for o, d := range dist {
					if b+o == i || !(d < best[kth-1]) {
						continue
					}
					p := kth - 1
					for p > 0 && best[p-1] > d {
						best[p] = best[p-1]
						p--
					}
					best[p] = d
				}
			}
			idx := kth - 1
			if n-1 < kth {
				idx = n - 2
			}
			kdist[s] = best[idx]
		}
		return nil
	})
	sort.Float64s(kdist)
	v := kdist[(len(kdist)*9)/10]
	if v <= 0 || math.IsInf(v, 1) {
		// Degenerate geometry (many identical rows): any positive radius
		// connects duplicates.
		return 1e-9
	}
	return math.Sqrt(v)
}

// DBSCANSweep runs DBSCAN across the paper's min-samples grid (5 to
// maxPts in steps of step) and returns every clustering in grid order,
// each equal to a direct DBSCAN at that min-samples. eps is chosen
// automatically and the ε-neighbor lists are built — and charged against
// budget — once for the whole sweep; each grid point only re-grows the
// clusters. The grid is r.MinPts per member and the noise curve (Figure
// 5's series) is r.NoiseRatio(); the clustering at the chosen
// min-samples is the member itself.
func DBSCANSweep(m *Matrix, maxPts, step int, budget int64, workers int) ([]*DBSCANResult, error) {
	if maxPts < 5 {
		return nil, fmt.Errorf("cluster: sweep maxPts must be >= 5, got %d", maxPts)
	}
	if step < 1 {
		return nil, fmt.Errorf("cluster: sweep step must be >= 1, got %d", step)
	}
	eps, neighbors, err := epsNeighbors(m, 0, budget, workers, slotChunk)
	if err != nil {
		return nil, err
	}
	var out []*DBSCANResult
	for p := 5; p <= maxPts; p += step {
		out = append(out, clusterAt(neighbors, p, eps))
	}
	return out, nil
}
