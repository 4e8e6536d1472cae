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
	rec := trace.Reduce(0, 0, r.Events(), r.IdleFraction(), r.MXUUtilization())
	m, _ := Features(trace.AggregateSteps([]*trace.ProfileRecord{rec}), 0)
	return Standardize(m, 0)
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
// columns, a sum of squares no larger than the input's, and equal to it
// (to 1e-9 relative) when every nonzero eigenvalue fits in k.
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
	vals, _ := eigSym(covariance(m, parallel.New(1)), m.Cols)
	rank := 0
	for rank < len(vals) && vals[rank] > float64(m.Cols)*epsilon*vals[0] {
		rank++
	}
	if rank <= k && math.Abs(got-in) > 1e-9*in {
		t.Fatalf("k=%d, rank %d: projected sum of squares %.9f, input %.9f", k, rank, got, in)
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

// TestPCAIsAProjection: on the real step matrix PCA keeps the 78
// components of nonzero variance and with them the whole sum of squares
// (power iteration with deflation, which eigSym replaced, returned 100
// components that were not orthonormal, summing to 49 778 against an
// input of 34 916); on random data it never exceeds the input at any k.
func TestPCAIsAProjection(t *testing.T) {
	m := realStepMatrix(t, "bert-mrpc", tpu.V2)
	if out := PCA(m, MaxFeatureOps, 0); m.Cols != 116 || out.Cols != 78 {
		t.Fatalf("real steps: %d columns → %d components, want 116 → 78", m.Cols, out.Cols)
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
// time.
func pcaOracle(m *Matrix, k int) *Matrix {
	if m.Rows == 0 || k >= m.Cols || k <= 0 {
		return m
	}
	d := m.Cols
	vals, vecs := eigSym(covarianceOracle(m), d)
	rank := 0
	for rank < k && vals[rank] > float64(d)*epsilon*vals[0] {
		rank++
	}
	out := NewMatrix(m.Rows, rank)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for c := range out.Row(i) {
			comp := vecs[c*d:][:d]
			var dot float64
			for j, x := range row {
				dot += x * comp[j]
			}
			out.Set(i, c, dot)
		}
	}
	return out
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
