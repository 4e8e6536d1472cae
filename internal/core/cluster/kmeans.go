package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/prng"
)

// KMeansResult holds one k-means clustering.
type KMeansResult struct {
	K          int
	Assignment []int   // per-row cluster id in [0, K)
	Centroids  *Matrix // K × dims
	SSD        float64 // sum of squared distances to assigned centroids
	Sizes      []int   // rows per cluster
	Iterations int
}

// KMeans runs Lloyd's algorithm with k-means++ seeding. seed makes runs
// reproducible. budget bounds the working memory (0 disables the check).
// The assignment and update steps fan out over fixed-size row chunks;
// per-chunk partial sums are merged in chunk order.
//
// The assignment step skips the distances Elkan's triangle-inequality
// bounds (Elkan, ICML 2003) prove cannot win, and returns Lloyd's
// clustering bit for bit. Each row keeps an upper bound on its distance to
// its centroid and a lower bound on its distance to every centroid; an
// update moves them by each centroid's drift. A centroid is skipped only
// when its lower bound, or half its distance to the row's centroid,
// exceeds the upper bound by pruneMargin and pruneFloor. Every bound is
// widened after each sqrt, add and subtract, so a skipped centroid's
// computed squared distance is strictly larger than the assigned one's and
// a tie is never skipped. The row's centroid and every centroid no bound
// excludes are scanned in ascending index order by lowest, nearest's rule,
// so ties still go to the lowest index. A row whose bounds are not finite,
// and every row while a centroid holds a non-finite coordinate, takes
// nearest over all k, so NaN resolves exactly as it always has. A chunk
// recomputes the partial sums of only the clusters whose membership in it
// changed: the same members in the same order give the same sum. SSD is
// summed in row order once, after the loop, against the centroids of the
// last assignment pass.
//
// The loop stops after an assignment pass that moves no row, or after 200
// passes. At that cap the returned Centroids are one update past the
// returned Assignment and SSD, as Lloyd's loop has always reported them.
func KMeans(m *Matrix, k int, seed uint64, budget int64, workers int) (*KMeansResult, error) {
	return kmeans(m, k, seed, budget, parallel.New(workers))
}

// Bound arithmetic. The bounds are Euclidean distances, not squared ones.
const (
	// boundSlack is the relative widening after each sqrt, add and
	// subtract on a bound. A seeded bound is the sqrt of a computed
	// sqDist, whose relative rounding grows by about 2^-53 a column, so
	// the widening adds 2^-52 per column to it.
	boundSlack = 1e-12
	// A centroid is skipped only when its bound exceeds the upper bound u
	// times 1+pruneMargin, plus pruneFloor. The margin outweighs sqDist's
	// relative rounding at any width that fits in memory, and the floor
	// its absolute rounding near subnormals, so the skipped centroid's
	// computed squared distance is strictly the larger.
	pruneMargin = 1e-9
	pruneFloor  = 1e-150
	// boundCap caps every bound. A row whose upper bound is above it, or
	// NaN, takes the full scan: past it the squares could overflow.
	boundCap = 1e150
)

// distEvals counts the row-to-centroid distances k-means' assignment
// passes compute; BenchmarkKMeansSweep reports it against Lloyd's.
var distEvals atomic.Int64

// kmeans is KMeans on the caller's pool, so a sweep can run its members
// inline.
func kmeans(m *Matrix, k int, seed uint64, budget int64, pool *parallel.Pool) (*KMeansResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if m.Rows == 0 {
		return nil, fmt.Errorf("cluster: empty matrix")
	}
	if k > m.Rows {
		k = m.Rows
	}
	n, d := m.Rows, m.Cols
	nc := parallel.NumChunks(n, parChunk)
	// Input + centroids + assignment and upper bound per row + lower
	// bounds per row and centroid + half-distances between centroids +
	// per-chunk update partials.
	need := m.Bytes() + int64(k*d)*8 + int64(n)*16 + int64(n)*int64(k)*8 +
		int64(k*k)*8 + int64(nc)*int64(k)*(int64(d)*8+8)
	if err := validateBudget(need, budget, "k-means"); err != nil {
		return nil, err
	}
	ctx := context.Background()

	rng := prng.New(seed)
	centroids := seedPlusPlus(m, k, rng, pool)
	spare := NewMatrix(k, d)
	assign := make([]int, n)
	sizes := make([]int, k)
	slack := boundSlack + float64(d)*0x1p-52
	b := &bounds{
		k: k, up: 1 + slack, down: 1 - slack,
		upper: make([]float64, n), lower: make([]float64, n*k),
		half: make([]float64, k*k), drift: make([]float64, k),
	}
	// Chunk boundaries depend only on the row count, so merging the
	// partials front to back gives the same floating-point grouping
	// regardless of the worker count.
	chunks := make([]chunkState, nc)
	for ci := range chunks {
		chunks[ci] = chunkState{
			sums: make([]float64, k*d), counts: make([]int, k),
			dirty: make([]bool, k), cand: make([]int, k), dist: make([]float64, k),
		}
		for c := range chunks[ci].dirty {
			chunks[ci].dirty[c] = true
		}
	}

	var last *Matrix // the centroids of the last assignment pass
	iterations := 0
	for iter := 0; iter < 200; iter++ {
		iterations = iter + 1
		cur := centroids
		// The first pass seeds every row's bounds; a centroid with a
		// non-finite coordinate voids them all.
		full := iter == 0 || !allFinite(cur.Data)
		_ = pool.Run(ctx, n, parChunk, func(ci, lo, hi int) error {
			cs := &chunks[ci]
			cs.changed = false
			evals := 0
			for i := lo; i < hi; i++ {
				row := m.Row(i)
				a := assign[i]
				best := a
				cand, ok := cs.cand, false
				if !full {
					cand, ok = b.candidates(i, a, cs.cand)
				}
				switch {
				case !ok:
					best, _ = nearest(row, cur, cs.dist)
					b.set(i, ascending(k), cs.dist, best)
					evals += k
				case len(cand) > 1:
					dist := cs.dist[:len(cand)]
					sqDists(row, cur, cand, dist)
					j := lowest(dist)
					best = cand[j]
					b.set(i, cand, dist, j)
					evals += len(cand)
				}
				if best != a {
					assign[i] = best
					cs.dirty[a], cs.dirty[best] = true, true
					cs.changed = true
				}
			}
			cs.refreshPartials(m, assign, lo, hi)
			distEvals.Add(int64(evals))
			return nil
		})
		last = cur
		changed := false
		for ci := range chunks {
			changed = changed || chunks[ci].changed
		}
		if !changed && iter > 0 {
			break
		}
		// Update step: merge partials, then divide, into the buffer of
		// the centroids before cur.
		next := spare
		clear(next.Data)
		for i := range sizes {
			sizes[i] = 0
		}
		for ci := range chunks {
			cs := &chunks[ci]
			for c := 0; c < k; c++ {
				sizes[c] += cs.counts[c]
				crow := next.Row(c)
				prow := cs.sums[c*d : (c+1)*d]
				for j := range crow {
					crow[j] += prow[j]
				}
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(next.Row(c), m.Row(rng.Intn(n)))
				continue
			}
			crow := next.Row(c)
			for j := range crow {
				crow[j] /= float64(sizes[c])
			}
		}
		b.moved(cur, next)
		centroids, spare = next, cur
	}
	var ssd float64
	for i, c := range assign {
		ssd += sqDist(m.Row(i), last.Row(c))
	}
	return &KMeansResult{
		K: k, Assignment: assign, Centroids: centroids,
		SSD: ssd, Sizes: sizes, Iterations: iterations,
	}, nil
}

// bounds is one k-means run's triangle-inequality state. Every value is
// widened toward safety: upper and drift up, lower and half down.
type bounds struct {
	k        int
	up, down float64   // 1 ± the widening
	upper    []float64 // per row: at least its distance to its centroid
	lower    []float64 // per row, k each: at most its distance to each centroid
	half     []float64 // k×k: at most half the distance between two centroids
	drift    []float64 // per centroid: at least how far the last update moved it
}

// candidates moves row i's bounds by the last update's drift and returns,
// in cand's storage and ascending, its centroid a and every centroid no
// bound excludes. It returns false, leaving the bounds to a reseed, when
// the upper bound is not finite or exceeds boundCap.
func (b *bounds) candidates(i, a int, cand []int) ([]int, bool) {
	u := (b.upper[i] + b.drift[a]) * b.up
	if !(u <= boundCap) {
		return cand, false
	}
	b.upper[i] = u
	reach := u*(1+pruneMargin) + pruneFloor
	lower := b.lower[i*b.k:][:b.k]
	half := b.half[a*b.k:][:b.k]
	cand = cand[:0]
	for c, l := range lower {
		l = (l - b.drift[c]) * b.down
		lower[c] = l
		// A NaN bound fails the comparison and keeps its centroid.
		if c == a || !(reach < max(l, half[c])) {
			cand = append(cand, c)
		}
	}
	return cand, true
}

// set resets row i's upper bound, and its lower bounds to the centroids
// cand, from the squared distances dist it just computed to them, of which
// dist[j] is the smallest and to its centroid.
func (b *bounds) set(i int, cand []int, dist []float64, j int) {
	b.upper[i] = math.Sqrt(dist[j]) * b.up
	lower := b.lower[i*b.k:][:b.k]
	for jj, c := range cand {
		lower[c] = min(math.Sqrt(dist[jj])*b.down, boundCap)
	}
}

// moved records an update from cur to next: each centroid's drift, and
// half the distance between every pair of next's centroids.
func (b *bounds) moved(cur, next *Matrix) {
	for c := range b.drift {
		b.drift[c] = math.Sqrt(sqDist(cur.Row(c), next.Row(c))) * b.up
	}
	all := ascending(b.k)
	for a := 0; a < b.k; a++ {
		half := b.half[a*b.k:][:b.k]
		sqDists(next.Row(a), next, all, half)
		for c, s := range half {
			half[c] = min(math.Sqrt(s)*0.5*b.down, boundCap)
		}
	}
}

// chunkState is one row chunk's update partials and assignment scratch.
type chunkState struct {
	sums    []float64 // k×d: per cluster, the sum of its rows in the chunk, in row order
	counts  []int     // per cluster, its rows in the chunk
	dirty   []bool    // clusters whose membership in the chunk changed
	changed bool      // the last pass moved a row of the chunk
	cand    []int     // candidate centroids of one row
	dist    []float64 // squared distances of one row
}

// refreshPartials recomputes the partial sum and count of every dirty
// cluster from the chunk's rows [lo, hi), in row order, and clears dirty.
func (cs *chunkState) refreshPartials(m *Matrix, assign []int, lo, hi int) {
	if !slices.Contains(cs.dirty, true) {
		return
	}
	d := m.Cols
	for c, dirty := range cs.dirty {
		if dirty {
			clear(cs.sums[c*d : (c+1)*d])
			cs.counts[c] = 0
		}
	}
	for i := lo; i < hi; i++ {
		c := assign[i]
		if !cs.dirty[c] {
			continue
		}
		cs.counts[c]++
		crow := cs.sums[c*d : (c+1)*d]
		for j, v := range m.Row(i) {
			crow[j] += v
		}
	}
	clear(cs.dirty)
}

// allFinite reports whether no value is NaN or ±Inf.
func allFinite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// nearest returns the centroid closest to row and the squared distance to
// it, using dist (one slot per centroid) as scratch.
func nearest(row []float64, centroids *Matrix, dist []float64) (int, float64) {
	sqDists(row, centroids, ascending(centroids.Rows), dist)
	best := lowest(dist)
	return best, dist[best]
}

// lowest returns the index of the smallest of dist by the scan that starts
// at 0 and moves only to a strictly smaller value, so ties resolve to the
// lowest index and a NaN at 0 is never left.
func lowest(dist []float64) int {
	best := 0
	for c, d := range dist {
		if d < dist[best] {
			best = c
		}
	}
	return best
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy.
// The distance-to-nearest-centroid table is maintained incrementally
// (each new centroid only lowers it), turning the legacy O(n·k²) scan
// into O(n·k); the per-row minima are identical, so the seeding — and the
// PRNG consumption — matches the legacy implementation bit for bit.
func seedPlusPlus(m *Matrix, k int, rng *prng.Source, pool *parallel.Pool) *Matrix {
	centroids := NewMatrix(k, m.Cols)
	copy(centroids.Row(0), m.Row(rng.Intn(m.Rows)))
	d2 := make([]float64, m.Rows)
	toNewest := make([]float64, m.Rows)
	rows := ascending(m.Rows)
	ctx := context.Background()
	for c := 1; c < k; c++ {
		newest := centroids.Row(c - 1)
		first := c == 1
		_ = pool.Run(ctx, m.Rows, parChunk, func(ci, lo, hi int) error {
			sqDists(newest, m, rows[lo:hi], toNewest[lo:hi])
			for i := lo; i < hi; i++ {
				if d := toNewest[i]; first || d < d2[i] {
					d2[i] = d
				}
			}
			return nil
		})
		var total float64
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			copy(centroids.Row(c), m.Row(rng.Intn(m.Rows)))
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := m.Rows - 1
		for i := 0; i < m.Rows; i++ {
			acc += d2[i]
			if acc >= target {
				pick = i
				break
			}
		}
		copy(centroids.Row(c), m.Row(pick))
	}
	return centroids
}

// KMeansSweep runs k-means for k = 1..kMax (run k seeded with
// seed+uint64(k)) and returns every clustering, index k-1 holding run k.
// The elbow method's SSD series (the paper's Figure 4) is r.SSD per
// member and the BIC series is BIC(m, r); the clustering at the chosen k
// is the member itself.
//
// The sweep is the parallel level: the pool takes one task per k and each
// member runs its row fan-outs inline, so a 300-step run (one row chunk)
// still fills the pool. Run k costs in proportion to k, so tasks go out
// largest k first; that longest-first order leaves the workers about one
// small run apart at the end, which keeps a many-chunk sweep no slower
// than fanning each member out over its rows. budget is checked per
// member, as for a direct run: concurrent members share m and add only
// their own centroids and partials. The error is the lowest failing k's.
func KMeansSweep(m *Matrix, kMax int, seed uint64, budget int64, workers int) ([]*KMeansResult, error) {
	if kMax < 1 {
		return nil, fmt.Errorf("cluster: sweep kMax must be >= 1, got %d", kMax)
	}
	out := make([]*KMeansResult, kMax)
	errs := make([]error, kMax)
	inline := parallel.New(1)
	_ = parallel.New(workers).Run(context.Background(), kMax, 1, func(ci, _, _ int) error {
		k := kMax - ci
		out[k-1], errs[k-1] = kmeans(m, k, seed+uint64(k), budget, inline)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Elbow returns the 1-based index of the elbow in a decreasing series: the
// point with maximum distance from the line joining the first and last
// points. A series shorter than 3 returns its length.
func Elbow(series []float64) int {
	n := len(series)
	if n < 3 {
		return n
	}
	x1, y1 := 1.0, series[0]
	x2, y2 := float64(n), series[n-1]
	dx, dy := x2-x1, y2-y1
	den := dx*dx + dy*dy
	best, bestD := 1, -1.0
	for i := 0; i < n; i++ {
		x, y := float64(i+1), series[i]
		// Perpendicular distance to the chord (scaled; monotone in true
		// distance since den is constant).
		d := dx*(y1-y) - (x1-x)*dy
		dist := d * d / den
		if dist > bestD {
			best, bestD = i+1, dist
		}
	}
	return best
}
