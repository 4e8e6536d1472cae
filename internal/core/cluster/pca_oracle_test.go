package cluster

// The one-row-at-a-time mat-vec PCA's power iteration used before the
// four-row kernel, kept as the differential oracle: the shipped matVec
// must reproduce it bit for bit, because seeded k-means++ downstream
// flips on last-bit changes in the projected features.

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/prng"
)

func matVecOneRow(a []float64, x, out []float64) {
	d := len(x)
	for i := 0; i < d; i++ {
		var s float64
		row := a[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			s += row[j] * x[j]
		}
		out[i] = s
	}
}

// TestMatVecMatchesOneRowOracle covers every remainder of the four-row
// blocking (d = 1, 3, 4, 5, 127, 128) on a dense random matrix and on a
// covariance deflated the way PCA deflates it (entries cancelling toward
// zero, where a reordered sum would show first).
func TestMatVecMatchesOneRowOracle(t *testing.T) {
	for _, d := range []int{1, 3, 4, 5, 127, 128} {
		rng := prng.New(uint64(d) + 7)
		x := make([]float64, d)
		for i := range x {
			x[i] = rng.Float64() - 0.5
		}
		check := func(kind string, a []float64) {
			t.Helper()
			got, want := make([]float64, d), make([]float64, d)
			matVec(a, x, got)
			matVecOneRow(a, x, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("d=%d %s: out[%d] = %x, oracle %x", d, kind, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}

		random := make([]float64, d*d)
		for i := range random {
			random[i] = rng.Normal(0, 3)
		}
		check("random", random)

		m := gaussMatrix(4*d+8, d, uint64(d)+11)
		Standardize(m, 1)
		cov := covariance(m, parallel.New(1))
		v, work := append([]float64(nil), x...), make([]float64, d)
		normalize(v)
		for round := 0; round < 3; round++ {
			for iter := 0; iter < 20; iter++ {
				matVecOneRow(cov, v, work)
				copy(v, work)
				normalize(v)
			}
			matVecOneRow(cov, v, work)
			lambda := norm(work)
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					cov[i*d+j] -= lambda * v[i] * v[j]
				}
			}
			check("deflated", cov)
		}
	}
}
