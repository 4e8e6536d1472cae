package cluster

// The differential oracles for PCA: a cyclic Jacobi eigensolver, slow and
// simple, against which eigSym's eigenvalues are checked; the covariance
// and the projection as they ran before the four-wide kernels
// (covarianceOracle, pcaOracle), which PCA must reproduce bit for bit; and
// the properties that make PCA a projection — orthonormal components,
// eigenvalues in descending order, the sign rule, and a projected sum of
// squares that never exceeds the input's.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/estimator"
	"repro/internal/parallel"
	"repro/internal/prng"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// jacobiEigenvalues returns the eigenvalues of the symmetric row-major
// n×n matrix a in descending order, by cyclic Jacobi rotations until the
// off-diagonal sum of squares is below 1e-30 of the Frobenius norm's
// square. a is not modified.
func jacobiEigenvalues(t testing.TB, a []float64, n int) []float64 {
	t.Helper()
	a = append([]float64(nil), a...)
	var fro float64
	for _, x := range a {
		fro += x * x
	}
	for sweep := 0; ; sweep++ {
		var off float64
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if p != q {
					off += a[p*n+q] * a[p*n+q]
				}
			}
		}
		if off <= 1e-30*fro {
			break
		}
		if sweep == 100 {
			t.Fatalf("jacobi: no convergence after 100 sweeps (off %g, fro %g)", off, fro)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				// Zero a[p][q] with the rotation J of angle φ,
				// tan φ = t: a ← Jᵀ a J.
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				tan := 1 / (math.Abs(theta) + math.Hypot(theta, 1))
				if theta < 0 {
					tan = -tan
				}
				c := 1 / math.Hypot(tan, 1)
				s := tan * c
				for k := 0; k < n; k++ {
					x, y := a[k*n+p], a[k*n+q]
					a[k*n+p], a[k*n+q] = c*x-s*y, s*x+c*y
				}
				for k := 0; k < n; k++ {
					x, y := a[p*n+k], a[q*n+k]
					a[p*n+k], a[q*n+k] = c*x-s*y, s*x+c*y
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = a[i*n+i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals
}

// randomSPD returns the covariance of n+5 rows of correlated Gaussian
// data in n columns: symmetric positive definite, with a spread of
// eigenvalues.
func randomSPD(n int, seed uint64) []float64 {
	rng := prng.New(seed)
	m := NewMatrix(n+5, n)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.Normal(0, 1+float64(j%7))
			if j > 0 {
				row[j] += 0.5 * row[j-1]
			}
		}
	}
	Standardize(m, 1)
	return covariance(m, parallel.New(1))
}

// realStepMatrix is the standardized feature matrix of a 300-step
// recording (estimator seed 1), reduced the way TestPhaseDigestsPinned
// builds its steps. bert-mrpc on TPUv2 has 116 columns, numerical rank 78.
func realStepMatrix(t testing.TB, workload string, v tpu.Version) *Matrix {
	t.Helper()
	r, err := estimator.New(workloads.MustGet(workload),
		estimator.Options{Version: v, Steps: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rec := trace.Reduce(0, 0, runEvents(r), r.IdleFraction(), r.MXUUtilization())
	m, _ := Features(trace.AggregateSteps([]*trace.ProfileRecord{rec}), 0)
	return Standardize(m, 0)
}

// runEvents builds a finished run's events, host and device merged as the
// profile service tiles them, from a walk of the run's segments.
func runEvents(r *estimator.Runner) []trace.Event {
	var events []trace.Event
	r.Segments(0, math.MaxInt64, func(seg trace.Segment) bool {
		events = seg.AppendEvents(events)
		return true
	})
	return events
}

// checkEigSym runs eigSym on the symmetric n×n matrix a and checks it
// against the Jacobi oracle and the definition of an eigenpair.
func checkEigSym(t *testing.T, a []float64, n int) {
	t.Helper()
	want := jacobiEigenvalues(t, a, n)
	vals, vecs := eigSym(append([]float64(nil), a...), n)
	lmax := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
	tol := 1e-9 * math.Max(lmax, math.SmallestNonzeroFloat64)
	for i := range vals {
		if i > 0 && vals[i] > vals[i-1] {
			t.Fatalf("eigenvalues not descending: λ[%d] = %g > λ[%d] = %g", i, vals[i], i-1, vals[i-1])
		}
		if math.Abs(vals[i]-want[i]) > tol {
			t.Fatalf("λ[%d] = %.17g, Jacobi oracle %.17g (tolerance %g)", i, vals[i], want[i], tol)
		}
	}
	// ‖VᵀV − I‖∞ (the largest absolute row sum) over the rows of vecs.
	var worst float64
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			dot := dotRows(vecs, i, j, n)
			if i == j {
				dot--
			}
			rowSum += math.Abs(dot)
		}
		worst = math.Max(worst, rowSum)
	}
	if worst > 1e-9 {
		t.Fatalf("‖VᵀV − I‖∞ = %g, want ≤ 1e-9", worst)
	}
	for c := 0; c < n; c++ {
		v := vecs[c*n:][:n]
		// A v = λ v, to the eigenvalue tolerance.
		for i := 0; i < n; i++ {
			var av float64
			for j := 0; j < n; j++ {
				av += a[i*n+j] * v[j]
			}
			if r := math.Abs(av - vals[c]*v[i]); r > tol {
				t.Fatalf("component %d: |(A v − λ v)[%d]| = %g > %g", c, i, r, tol)
			}
		}
		// The sign rule: the first largest-magnitude entry is positive.
		big := 0
		for j := range v {
			if math.Abs(v[j]) > math.Abs(v[big]) {
				big = j
			}
		}
		if v[big] <= 0 {
			t.Fatalf("component %d: largest-magnitude entry v[%d] = %g is not positive", c, big, v[big])
		}
	}
}

func dotRows(m []float64, i, j, n int) float64 {
	var s float64
	for k := 0; k < n; k++ {
		s += m[i*n+k] * m[j*n+k]
	}
	return s
}

func sumOfSquares(m *Matrix) float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return s
}

// checkProjection checks that PCA(m, k) is a projection: at most k
// columns, a sum of squares never above the input's, and at least
// keptVariance of it (to 1e-9 relative) unless k cut the components short.
func checkProjection(t *testing.T, m *Matrix, k int) {
	t.Helper()
	out := PCA(m, k, 0)
	if out.Rows != m.Rows || out.Cols > k {
		t.Fatalf("k=%d: PCA output is %d×%d for a %d×%d input", k, out.Rows, out.Cols, m.Rows, m.Cols)
	}
	in, got := sumOfSquares(m), sumOfSquares(out)
	if got > in*(1+1e-12) {
		t.Fatalf("k=%d: projected sum of squares %.6f exceeds the input's %.6f", k, got, in)
	}
	if out.Cols < k && got < keptVariance*in*(1-1e-9) {
		t.Fatalf("k=%d, %d components: projected sum of squares %.9f is under %g of the input's %.9f", k, out.Cols, got, keptVariance, in)
	}
}

func TestEigSymMatchesJacobiOnRandomSPD(t *testing.T) {
	for _, n := range []int{1, 2, 5, 116, 200} {
		t.Run(fmt.Sprintf("d=%d", n), func(t *testing.T) {
			checkEigSym(t, randomSPD(n, uint64(n)+41), n)
		})
	}
}

func TestEigSymMatchesJacobiOnRealSteps(t *testing.T) {
	m := realStepMatrix(t, "bert-mrpc", tpu.V2)
	checkEigSym(t, covariance(m, parallel.New(1)), m.Cols)
}

// TestPCAIsAProjection: on the real step matrix PCA keeps the 33
// leading components that carry 99% of the variance (of the 78 above the
// numerical rank) and with them at least 99% of the sum of squares (power
// iteration with deflation, which eigSym replaced, returned 100
// components that were not orthonormal, summing to 49 778 against an
// input of 34 916); on random data it never exceeds the input at any k.
func TestPCAIsAProjection(t *testing.T) {
	m := realStepMatrix(t, "bert-mrpc", tpu.V2)
	if out := PCA(m, MaxFeatureOps, 0); m.Cols != 116 || out.Cols != 33 {
		t.Fatalf("real steps: %d columns → %d components, want 116 → 33", m.Cols, out.Cols)
	}
	checkProjection(t, m, MaxFeatureOps)
	checkProjection(t, m, 3)
	for _, d := range []int{2, 5, 116, 200} {
		x := gaussMatrix(3*d+10, d, uint64(d)+5)
		Standardize(x, 0)
		for _, k := range []int{1, d - 1, MaxFeatureOps} {
			checkProjection(t, x, k)
		}
	}
}

// noiseMatrix is an n×d matrix of independent standard normal entries,
// standardized: its variance spreads over every direction, so PCA needs
// most components to reach keptVariance.
func noiseMatrix(n, d int, seed uint64) *Matrix {
	rng := prng.New(seed)
	m := NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Normal(0, 1)
	}
	return Standardize(m, 0)
}

// TestPCAKeepsNinetyNinePercent checks the count of components PCA keeps
// against the covariance's eigenvalues: the kept ones carry at least
// keptVariance of the variance above the numerical rank (unless k cut
// them short, and then exactly k are kept), the kept ones without the
// last carry less, and the count never passes k, d or that rank. The
// matrices are the six Table I feature matrices, blobs, noise, one of
// fewer columns than k (which the same rule reduces), a zero matrix and
// a matrix holding a NaN (no component).
func TestPCAKeepsNinetyNinePercent(t *testing.T) {
	type tc struct {
		name    string
		m       *Matrix
		k       int
		reduces bool // fewer columns than k, yet fewer components than columns
	}
	var cases []tc
	names, raw := tableIRawMatrices(t)
	for i, m := range raw {
		cases = append(cases, tc{names[i], m, MaxFeatureOps, false})
	}
	blobs := gaussMatrix(200, 12, 70)
	Standardize(blobs, 0)
	nan := noiseMatrix(50, 6, 73)
	nan.Set(7, 3, math.NaN())
	cases = append(cases,
		tc{names[0] + " k=3", raw[0], 3, false},
		tc{"blobs 200×12", blobs, MaxFeatureOps, true},
		tc{"noise 400×60", noiseMatrix(400, 60, 71), MaxFeatureOps, false},
		tc{"noise 40×10", noiseMatrix(40, 10, 72), MaxFeatureOps, false},
		tc{"noise 40×10, k=4", noiseMatrix(40, 10, 72), 4, false},
		tc{"zero", NewMatrix(20, 5), MaxFeatureOps, false},
		tc{"NaN", nan, MaxFeatureOps, false},
	)
	for _, c := range cases {
		m, k, d := c.m, c.k, c.m.Cols
		r := PCA(m, k, 0).Cols
		vals, _ := eigSym(covariance(m, parallel.New(1)), d)
		rank := 0
		var total float64
		for rank < d && vals[rank] > float64(d)*epsilon*vals[0] {
			total += vals[rank]
			rank++
		}
		if r > min(k, d, rank) {
			t.Fatalf("%s: %d components, above min(k=%d, d=%d, rank=%d)", c.name, r, k, d, rank)
		}
		var kept, lessOne float64
		for _, v := range vals[:r] {
			lessOne = kept
			kept += v
		}
		if r < k && kept < keptVariance*total {
			t.Fatalf("%s: %d components carry %.6f of %.6f, under %g", c.name, r, kept, total, keptVariance)
		}
		if r > 0 && lessOne >= keptVariance*total {
			t.Fatalf("%s: %d components, but the first %d already carry %.6f of %.6f", c.name, r, r-1, lessOne, total)
		}
		if c.reduces && r >= d {
			t.Fatalf("%s: %d of %d columns kept, want a reduction", c.name, r, d)
		}
		t.Logf("%s: %d×%d, rank %d, k %d → %d components", c.name, m.Rows, d, rank, k, r)
	}
}

// TestEigSymBreaksTiesByIndex: equal eigenvalues keep the solver's order
// and each vector still obeys the sign rule — on a diagonal matrix the
// components are the unit vectors, ascending within each tie.
func TestEigSymBreaksTiesByIndex(t *testing.T) {
	diag := []float64{1, 3, 3, 0, 3, 1}
	n := len(diag)
	a := make([]float64, n*n)
	for i, x := range diag {
		a[i*n+i] = x
	}
	vals, vecs := eigSym(a, n)
	wantVals := []float64{3, 3, 3, 1, 1, 0}
	wantUnit := []int{1, 2, 4, 0, 5, 3}
	for c := range wantVals {
		if vals[c] != wantVals[c] {
			t.Fatalf("λ = %v, want %v", vals, wantVals)
		}
		for j := 0; j < n; j++ {
			want := 0.0
			if j == wantUnit[c] {
				want = 1
			}
			if vecs[c*n+j] != want {
				t.Fatalf("component %d = %v, want unit vector %d", c, vecs[c*n:][:n], wantUnit[c])
			}
		}
	}
}

// pcaSink keeps the benchmarked PCA result live.
// covarianceOracle is the covariance one input row at a time: each
// covChunk of rows sums x_ri·x_rj into a d×d partial of its own (skipping
// a row whose x_ri is 0), the partials are added to a zero matrix in
// chunk order, and the upper triangle is scaled and mirrored.
func covarianceOracle(m *Matrix) []float64 {
	d := m.Cols
	partials, _ := parallel.Map(parallel.New(1), context.Background(), m.Rows, covChunk,
		func(ci, lo, hi int) ([]float64, error) {
			part := make([]float64, d*d)
			for r := lo; r < hi; r++ {
				row := m.Row(r)
				for i, x := range row {
					if x == 0 {
						continue
					}
					dst := part[i*d+i : (i+1)*d]
					for j, y := range row[i:] {
						dst[j] += x * y
					}
				}
			}
			return part, nil
		})
	cov := make([]float64, d*d)
	for _, part := range partials {
		for i := range cov {
			cov[i] += part[i]
		}
	}
	scale := 1 / float64(max(1, m.Rows-1))
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i*d+j] *= scale
			cov[j*d+i] = cov[i*d+j]
		}
	}
	return cov
}

// pcaOracle is PCA on covarianceOracle, projecting one component at a
// time. It keeps as many components as PCA, by the same keptComponents.
func pcaOracle(m *Matrix, k int) *Matrix {
	if m.Rows == 0 || k <= 0 {
		return m
	}
	d := m.Cols
	vals, vecs := eigSym(covarianceOracle(m), d)
	out := NewMatrix(m.Rows, keptComponents(vals, k))
	for i := 0; i < m.Rows; i++ {
		projectOracle(m.Row(i), vecs, out.Row(i))
	}
	return out
}

// projectOracle sets dst[c] to the dot product of row with component c
// (row c of components, len(row) wide), one component at a time.
func projectOracle(row, components, dst []float64) {
	d := len(row)
	for c := range dst {
		comp := components[c*d:][:d]
		var dot float64
		for j, x := range row {
			dot += x * comp[j]
		}
		dst[c] = dot
	}
}

// samePCA reports whether two matrices are equal bit for bit, NaN
// matching NaN.
func samePCA(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.Data {
		if !sameFloat(x, b.Data[i]) {
			return false
		}
	}
	return true
}

// TestPCAMatchesOracle holds covariance and PCA to the row-at-a-time
// oracles bit for bit, at one worker and on the default pool: on the six
// Table I feature matrices; on standardized Gaussian data at row counts
// that leave every remainder of the four-row blocks, at ranks that leave
// every remainder of the four-component passes, with zeros scattered
// through it (the skipped terms) and with whole zero columns; across
// three covChunks, where the chunk partials merge; and — covariance only
// — with NaN and ±Inf entries.
func TestPCAMatchesOracle(t *testing.T) {
	names, raw := tableIRawMatrices(t)
	for i, m := range raw {
		for _, w := range []int{1, 0} {
			if got := PCA(m, MaxFeatureOps, w); !samePCA(got, pcaOracle(m, MaxFeatureOps)) {
				t.Fatalf("%s workers=%d: PCA differs from the oracle", names[i], w)
			}
		}
	}
	check := func(name string, m *Matrix, ks ...int) {
		t.Helper()
		want := covarianceOracle(m)
		for _, w := range []int{1, 0} {
			got := covariance(m, parallel.New(w))
			for i, x := range got {
				if !sameFloat(x, want[i]) {
					t.Fatalf("%s workers=%d: covariance value %d is %x, oracle %x", name, w, i, math.Float64bits(x), math.Float64bits(want[i]))
				}
			}
			for _, k := range ks {
				if !samePCA(PCA(m, k, w), pcaOracle(m, k)) {
					t.Fatalf("%s workers=%d k=%d: PCA differs from the oracle", name, w, k)
				}
			}
		}
		// PCA keeps few components of these blobs, so the four-wide
		// projection is also held directly at every count in ks.
		_, vecs := eigSym(covarianceOracle(m), m.Cols)
		for _, k := range ks {
			k = min(k, m.Cols)
			got, want := make([]float64, k), make([]float64, k)
			for i := 0; i < m.Rows; i++ {
				project(m.Row(i), vecs[:k*m.Cols], got)
				projectOracle(m.Row(i), vecs, want)
				for c := range got {
					if !sameFloat(got[c], want[c]) {
						t.Fatalf("%s k=%d: row %d component %d projects to %x, oracle %x", name, k, i, c, math.Float64bits(got[c]), math.Float64bits(want[c]))
					}
				}
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 41} {
		m := gaussMatrix(n, 13, uint64(n)+60)
		Standardize(m, 0)
		check(fmt.Sprintf("n=%d", n), m, 1, 2, 3, 4, 5, 8, 9, 12)
	}
	sparse := gaussMatrix(203, 17, 61)
	Standardize(sparse, 0)
	rng := prng.New(62)
	for i := range sparse.Data {
		if rng.Intn(3) == 0 {
			sparse.Data[i] = 0
		}
	}
	for i := 0; i < sparse.Rows; i++ {
		sparse.Set(i, 4, 0)
	}
	check("sparse", sparse, 6, 16)
	chunks := gaussMatrix(2*covChunk+7, 9, 63)
	Standardize(chunks, 0)
	check("three covChunks", chunks, 5)
	inf, nan := math.Inf(1), math.NaN()
	bad := gaussMatrix(30, 6, 64)
	bad.Set(3, 2, nan)
	bad.Set(11, 0, inf)
	bad.Set(17, 5, -inf)
	bad.Set(17, 1, 0)
	check("non-finite", bad)
}

var pcaSink *Matrix

// BenchmarkPCA times one PCA to MaxFeatureOps components at the paper's
// scale (300 steps × 58 operators' count and duration columns), at the
// vocabulary cap (10 000 steps × 200 columns), and as "real" on the six
// Table I feature matrices paper-pipeline projects (one op projects all
// six), on one worker and on the default pool. The real arm's set-up fails
// unless PCA matches pcaOracle there bit for bit.
func BenchmarkPCA(b *testing.B) {
	type arm struct {
		name string
		ms   []*Matrix
	}
	var arms []arm
	for _, size := range []struct{ n, d int }{{300, 116}, {10_000, 200}} {
		m := gaussMatrix(size.n, size.d, uint64(size.n))
		Standardize(m, 0)
		arms = append(arms, arm{fmt.Sprintf("n=%d/d=%d", size.n, size.d), []*Matrix{m}})
	}
	names, raw := tableIRawMatrices(b)
	for i, m := range raw {
		if !samePCA(PCA(m, MaxFeatureOps, 0), pcaOracle(m, MaxFeatureOps)) {
			b.Fatalf("%s: PCA differs from the oracle", names[i])
		}
	}
	arms = append(arms, arm{"real", raw})
	for _, arm := range arms {
		for _, w := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=default", 0}} {
			b.Run(fmt.Sprintf("%s/%s", arm.name, w.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, m := range arm.ms {
						pcaSink = PCA(m, MaxFeatureOps, w.workers)
					}
				}
			})
		}
	}
}
