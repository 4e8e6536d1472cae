package cluster

// The O(n²) DBSCAN the grid index replaced and the full-scan ε heuristic
// the bounded one replaced, kept as differential oracles:
// TestDBSCANGridMatchesBrute requires the shipped DBSCAN to reproduce
// dbscanBrute's labels, cluster count, noise count and auto-eps bit for
// bit, TestAutoEpsMatchesOracle holds autoEps to autoEpsOracle, and
// BenchmarkDBSCAN measures what the index buys.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
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
		eps = autoEpsOracle(m)
	}
	return clusterAt(bruteNeighbors(m, eps), minPts, eps), nil
}

// bruteNeighbors returns every point's ε-neighbour list by testing every
// pair: a squared distance at most ε² (never a NaN one) is a neighbour.
func bruteNeighbors(m *Matrix, eps float64) [][]int32 {
	eps2 := eps * eps
	neighbors := make([][]int32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := i + 1; j < m.Rows; j++ {
			if sqDist(ri, m.Row(j)) <= eps2 {
				neighbors[i] = append(neighbors[i], int32(j))
				neighbors[j] = append(neighbors[j], int32(i))
			}
		}
	}
	return neighbors
}

// autoEpsOracle is autoEps as a full scan: every sampled row's squared
// distance to every row, through sqDists, then the four smallest of them
// apart from its own. A NaN distance fails "below the 4th" and is never
// one of the four.
func autoEpsOracle(m *Matrix) float64 {
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
	toAll := make([]float64, n)
	for s := range kdist {
		i := s * stride
		sqDists(m.Row(i), m, ascending(n), toAll)
		best := [kth]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
		for j, d := range toAll {
			if i == j || !(d < best[kth-1]) {
				continue
			}
			p := kth - 1
			for p > 0 && best[p-1] > d {
				best[p] = best[p-1]
				p--
			}
			best[p] = d
		}
		idx := kth - 1
		if n-1 < kth {
			idx = n - 2
		}
		kdist[s] = best[idx]
	}
	sort.Float64s(kdist)
	v := kdist[(len(kdist)*9)/10]
	if v <= 0 || math.IsInf(v, 1) {
		return 1e-9
	}
	return math.Sqrt(v)
}

// latticeMatrix is the side³ points of an integer lattice in the first
// three of ten columns. With bump, every other row is raised by 0.5 in the
// last column, the second eight-column strip: two lattice neighbours are
// then at squared distance exactly 1 (same parity) or 1.25, and for both
// the partial sum over the first strip is exactly 1.
func latticeMatrix(side int, bump bool) *Matrix {
	m := NewMatrix(side*side*side, 10)
	for i := 0; i < m.Rows; i++ {
		m.Set(i, 0, float64(i%side))
		m.Set(i, 1, float64(i/side%side))
		m.Set(i, 2, float64(i/(side*side)))
		if bump && i%2 == 1 {
			m.Set(i, 9, 0.5)
		}
	}
	return m
}

// TestAutoEpsMatchesOracle holds the bounded autoEps to the full scan bit
// for bit, and the ε-neighbour lists at that ε to the brute pair test: on
// the six Table I PCA matrices (in some of which a pair sits at exactly
// the ε picked: ε is the root of a computed squared distance, and ε·ε
// rounds back onto it), on rows that each come in five and in
// three copies (the 4th-nearest distance ties, at 0 and above it), and on
// integer lattices where all but the corners' 4th-nearest distances tie
// at exactly 1, so ε is 1 and ε·ε is the computed squared distance of
// every lattice neighbour. On the bumped lattice at ε = 1 the first strip of a 1.25
// neighbour sums to exactly ε²: giving up on "at least the bound" instead
// of "above it" would keep that neighbour.
func TestAutoEpsMatchesOracle(t *testing.T) {
	names, ms := tableIMatrices(t)
	blobs := gaussMatrix(60, 6, 21)
	for _, copies := range []int{5, 3} {
		dup := NewMatrix(60*copies, 6)
		for i := 0; i < dup.Rows; i++ {
			copy(dup.Row(i), blobs.Row(i%blobs.Rows))
		}
		names, ms = append(names, fmt.Sprintf("%d-copies", copies)), append(ms, dup)
	}
	names, ms = append(names, "lattice"), append(ms, latticeMatrix(5, false))
	names, ms = append(names, "bumped-lattice"), append(ms, latticeMatrix(5, true))
	for i, m := range ms {
		want := autoEpsOracle(m)
		for _, w := range []int{1, 0} {
			if got := autoEps(m, parallel.New(w), slotChunk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s workers=%d: autoEps = %v, oracle %v", names[i], w, got, want)
			}
		}
		for _, eps := range []float64{0, 1} {
			got, neighbors, err := epsNeighbors(m, eps, 0, 0, slotChunk)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(neighbors, bruteNeighbors(m, got)) {
				t.Fatalf("%s eps=%v: the ε-neighbour lists differ from the brute pair test", names[i], got)
			}
		}
	}
	lattice := latticeMatrix(5, false)
	eps := autoEpsOracle(lattice)
	if eps != 1 || sqDist(lattice.Row(0), lattice.Row(1)) != eps*eps {
		t.Fatalf("lattice: eps = %v, want lattice neighbours at exactly ε", eps)
	}
	atEps := 0
	for _, m := range ms[:6] {
		eps := autoEpsOracle(m)
		for i := 0; i < m.Rows; i++ {
			for j := i + 1; j < m.Rows; j++ {
				if sqDist(m.Row(i), m.Row(j)) == eps*eps {
					atEps++
				}
			}
		}
	}
	if atEps == 0 {
		t.Fatal("no Table I pair sits at exactly the ε autoEps picks; the test no longer covers that case there")
	}
}

// TestDBSCANNonFiniteMatchesBrute: a NaN or ±Inf coordinate makes a
// distance NaN or +Inf, and neither is within ε or among a row's four
// nearest, in the shipped DBSCAN as in the brute oracle. The bad value
// sits in a grid-binned column and in a trailing one, in one row and in
// two (where Inf − Inf makes their distance NaN and the grid files both
// in one cell), at the ε autoEps picks and at ε = 1.5.
func TestDBSCANNonFiniteMatchesBrute(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, col := range []int{1, 5} {
		for _, bad := range []float64{nan, inf, -inf} {
			for _, rows := range [][]int{{7}, {7, 8}} {
				m := stepLikeMatrix(60)
				for _, r := range rows {
					m.Set(r, col, bad)
				}
				for _, minPts := range []int{2, 3, 5} {
					for _, eps := range []float64{0, 1.5} {
						got, err := DBSCAN(m, minPts, eps, 0, 0)
						if err != nil {
							t.Fatal(err)
						}
						want, err := dbscanBrute(m, minPts, eps)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got.Eps) != math.Float64bits(want.Eps) || !reflect.DeepEqual(got.Labels, want.Labels) {
							t.Fatalf("col %d = %v in rows %v, minPts=%d eps=%v: DBSCAN eps %v labels %v, brute eps %v labels %v",
								col, bad, rows, minPts, eps, got.Eps, got.Labels, want.Eps, want.Labels)
						}
						for _, r := range rows {
							if got.Labels[r] != Noise {
								t.Fatalf("col %d = %v in rows %v, minPts=%d eps=%v: row %d is in cluster %d, want noise",
									col, bad, rows, minPts, eps, r, got.Labels[r])
							}
						}
					}
				}
			}
		}
	}
}

// TestSqDistsWithinVerdicts checks the bounded kernel's contract against
// sqDist: for every list length 0..9 (each mix of four-wide blocks and
// one-wide tail), widths on both sides of a strip, bounds from 0 through
// each exact distance to +Inf and NaN, and rows holding NaN or ±Inf, the
// kernel returns the exact distance whenever that is at most the bound,
// and "at most t" and "below t" agree with the exact distance for t =
// bound and for half of it.
func TestSqDistsWithinVerdicts(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, d := range []int{1, 7, 8, 9, 17, 80} {
		m := gaussMatrix(12, d, uint64(d)+40)
		m.Set(9, d/2, nan)
		m.Set(10, d-1, inf)
		m.Set(11, 0, -inf)
		x := m.Row(0)
		exact := make([]float64, m.Rows)
		for r := range exact {
			exact[r] = sqDist(m.Row(r), x)
		}
		bounds := append([]float64{0, 1, inf, nan}, exact...)
		for _, bound := range bounds {
			for length := 0; length <= 9; length++ {
				for lo := 0; lo+length <= m.Rows; lo += 3 {
					rows := ascending(lo + length)[lo:]
					out := make([]float64, len(rows))
					sqDistsWithin(x, m, rows, bound, out)
					for i, r := range rows {
						e, o := exact[r], out[i]
						if e <= bound && !sameFloat(o, e) {
							t.Fatalf("d=%d bound=%v rows=%v: row %d reads %v, exact %v", d, bound, rows, r, o, e)
						}
						for _, th := range []float64{bound, bound / 2} {
							if (o <= th) != (e <= th) || (o < th) != (e < th) {
								t.Fatalf("d=%d bound=%v rows=%v t=%v: row %d reads %v, exact %v", d, bound, rows, th, r, o, e)
							}
						}
					}
				}
			}
		}
	}
}

// stepLikeMatrix is the benchmarks' synthetic geometry: three blobs,
// n × 8, with full-scale noise on the three coordinates the grid bins and
// near-degenerate noise on the other five — the regime the grid prunes in,
// not what the analyzer clusters. The six Table I matrices
// (tableIMatrices) are 101–341 rows × 77–100 PCA components, with the
// variance spread over dozens of them: at the ε autoEps picks 6–43% of
// all pairs are within ε, and the grid's 27 cells around a point hold
// 76–100% of all pairs.
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

// checkDBSCANMatchesBrute fails unless DBSCAN at minPts, with ε chosen
// automatically, gives dbscanBrute's ε and labels bit for bit.
func checkDBSCANMatchesBrute(tb testing.TB, name string, m *Matrix, minPts int) {
	tb.Helper()
	got, err := DBSCAN(m, minPts, 0, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	want, err := dbscanBrute(m, minPts, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if math.Float64bits(got.Eps) != math.Float64bits(want.Eps) || !reflect.DeepEqual(got.Labels, want.Labels) {
		tb.Fatalf("%s minPts=%d: DBSCAN (eps %v, %d clusters, %d noise) differs from the brute oracle (eps %v, %d clusters, %d noise)",
			name, minPts, got.Eps, got.Clusters, got.NoiseCount, want.Eps, want.Clusters, want.NoiseCount)
	}
}

// BenchmarkDBSCAN times the grid-indexed DBSCAN against the brute oracle:
// on stepLikeMatrix at one fixed eps, and as "real" on the six Table I PCA
// matrices at the ε autoEps picks (autoEpsOracle for the brute arm), one
// op clustering all six. The real arm's set-up fails unless DBSCAN
// matches the oracle there.
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
	names, table := tableIMatrices(b)
	for i, m := range table {
		checkDBSCANMatchesBrute(b, names[i], m, minPts)
	}
	b.Run("grid/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range table {
				if _, err := DBSCAN(m, minPts, 0, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("brute/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range table {
				if _, err := dbscanBrute(m, minPts, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkDBSCANSweep times the paper's 8-point min-samples sweep, which
// builds the ε-neighbor lists once, against one direct DBSCAN per grid
// point with the first member's eps reused (what a sweep costs without
// sharing them; the members are identical,
// TestSweepMembersEqualDirectRuns): on stepLikeMatrix, and as "real" on
// the six Table I PCA matrices, one op sweeping all six, which is the
// sweep paper-pipeline's analyzer runs. The real arm's set-up fails
// unless every member there matches the brute oracle.
func BenchmarkDBSCANSweep(b *testing.B) {
	type arm struct {
		name string
		ms   []*Matrix
	}
	var arms []arm
	for _, n := range []int{1_000, 10_000} {
		arms = append(arms, arm{fmt.Sprintf("n=%d", n), []*Matrix{stepLikeMatrix(n)}})
	}
	names, table := tableIMatrices(b)
	for i, m := range table {
		sweep, err := DBSCANSweep(m, 180, 25, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		eps := autoEpsOracle(m)
		neighbors := bruteNeighbors(m, eps)
		for _, r := range sweep {
			if want := clusterAt(neighbors, r.MinPts, eps); !reflect.DeepEqual(r, want) {
				b.Fatalf("%s: sweep member minPts=%d differs from the brute oracle", names[i], r.MinPts)
			}
		}
	}
	arms = append(arms, arm{"real", table})
	for _, arm := range arms {
		b.Run("sweep/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, m := range arm.ms {
					if _, err := DBSCANSweep(m, 180, 25, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("direct/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, m := range arm.ms {
					eps := 0.0
					for p := 5; p <= 180; p += 25 {
						r, err := DBSCAN(m, p, eps, 0, 0)
						if err != nil {
							b.Fatal(err)
						}
						eps = r.Eps
					}
				}
			}
		})
	}
}
