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

// neighborLists holds every point's ε-neighbors as two ascending lists,
// those below the point and those above it; read in that order they are
// its full ascending neighbor list. Each pair is stored once in each
// direction and nowhere else.
type neighborLists struct {
	lower, upper [][]int32
}

// degree is the number of ε-neighbors of point i.
func (nl *neighborLists) degree(i int) int { return len(nl.lower[i]) + len(nl.upper[i]) }

// epsNeighbors is the part of DBSCAN that depends only on ε: it picks ε
// when eps <= 0, bins the points into the grid index and materializes
// every point's ε-neighbor lists, charging them against budget as they
// appear. min-samples only decides which of these lists make a core
// point, so a sweep over min-samples builds them once. chunk is the
// row-chunk size of its two fan-outs, which only write per-row slots:
// no output depends on it, and callers pass slotChunk.
func epsNeighbors(m *Matrix, eps float64, budget int64, workers, chunk int) (float64, *neighborLists, error) {
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
	// Each pair found is charged twice, once for each of the two points
	// it is a neighbor of.
	var entries atomic.Int64
	upper := make([][]int32, n)
	// One neighborScratch per worker, not per chunk: at most Workers()
	// chunks run at once, so a chunk always finds one free, grown by the
	// chunks before it.
	scratch := make([]neighborScratch, pool.Workers())
	free := make(chan *neighborScratch, len(scratch))
	for i := range scratch {
		free <- &scratch[i]
	}
	err := pool.Run(context.Background(), n, chunk, func(ci, lo, hi int) error {
		var local int64
		sc := <-free
		defer func() { free <- sc }()
		for i := lo; i < hi; i++ {
			upper[i] = grid.neighbors(i, sc)
			local += 2 * int64(len(upper[i]))
		}
		if entries.Add(local) > entryLimit {
			return fmt.Errorf("%w: dbscan neighbor lists exceed %d bytes", ErrMemoryBudget, budget)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return eps, &neighborLists{lower: mirror(upper), upper: upper}, nil
}

// mirror turns the lists of neighbors above each row (upper, each
// ascending) into the lists below it: row j's is every h < j whose upper
// list holds j, in ascending h, as rows are walked in ascending h. The
// lists share one backing array of one entry a pair; a row without
// neighbors below it keeps a nil list.
func mirror(upper [][]int32) [][]int32 {
	size := make([]int, len(upper))
	total := 0
	for _, u := range upper {
		for _, j := range u {
			size[j]++
		}
		total += len(u)
	}
	slab := make([]int32, total)
	lower := make([][]int32, len(upper))
	off := 0
	for j, c := range size {
		if c > 0 {
			lower[j] = slab[off : off : off+c]
			off += c
		}
	}
	for h, u := range upper {
		for _, j := range u {
			lower[j] = append(lower[j], int32(h))
		}
	}
	return lower
}

// clusterAt grows the clusters of one min-samples value over the shared
// neighbor lists and counts clusters and noise.
func clusterAt(neighbors *neighborLists, minPts int, eps float64) *DBSCANResult {
	return newDBSCANResult(expand(neighbors, minPts), minPts, eps)
}

// newDBSCANResult counts the clusters and the noise of labels.
func newDBSCANResult(labels []int, minPts int, eps float64) *DBSCANResult {
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
// the labeling — is identical to the classic textbook algorithm, whose
// queue takes every neighbor list of every core point it reaches (the
// oracle expandTextbook). This queue holds each point at most once: a
// point is labeled as it is queued, so a labeled point is skipped — its
// textbook entry would be a visited point, or a repeat of one queued
// earlier, both no-ops when popped — and a visited noise point is claimed
// as a border point without being queued, as its textbook pop would.
func expand(neighbors *neighborLists, minPts int) []int {
	n := len(neighbors.upper)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	var queue []int32 // the points queued for the cluster being grown
	cluster := 0
	reach := func(p int) {
		for _, list := range [2][]int32{neighbors.lower[p], neighbors.upper[p]} {
			for _, q := range list {
				if labels[q] != Noise {
					continue
				}
				labels[q] = cluster
				if !visited[q] {
					queue = append(queue, q)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		if neighbors.degree(i)+1 < minPts {
			continue // not a core point (may later be claimed as border)
		}
		// Expand a new cluster from this core point.
		labels[i] = cluster
		queue = queue[:0]
		reach(i)
		for qi := 0; qi < len(queue); qi++ {
			p := int(queue[qi])
			visited[p] = true
			if neighbors.degree(p)+1 >= minPts {
				reach(p)
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
// dbscan_oracle_test.go). A NaN distance is never a candidate. The scan
// starts at the row's own block and wraps around: neighbouring steps sit
// close in feature space, so the bound tightens within the first blocks.
// The four smallest distances are one multiset whatever the order, and an
// abandoned row is strictly above the final 4th, so the order changes no
// bit.
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
	const kth, width = 4, 4
	kdist := make([]float64, count)
	all := ascending(n)
	blocks := (n + width - 1) / width
	_ = pool.Run(context.Background(), count, chunk, func(ci, lo, hi int) error {
		var block [width]float64
		for s := lo; s < hi; s++ {
			i := s * stride
			row := m.Row(i)
			// Running top-4 smallest squared distances (ascending).
			best := [kth]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
			for t := 0; t < blocks; t++ {
				b := (i/width + t) % blocks * width
				rows := all[b:min(b+width, n)]
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
