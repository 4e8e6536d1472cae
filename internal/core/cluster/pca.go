package cluster

import (
	"context"
	"math"

	"repro/internal/parallel"
	"repro/internal/prng"
)

// PCA projects the (already standardized) matrix onto its top-k principal
// components using power iteration with deflation — the dimensional
// reduction step the paper applies before k-means.
//
// If k >= m.Cols the input is returned unchanged (projection would be a
// rotation with no reduction, and the clustering metrics are rotation-
// invariant anyway). The covariance accumulation and the final projection
// fan out over fixed-size row chunks; covariance partials merge in chunk
// order.
func PCA(m *Matrix, k, workers int) *Matrix {
	if m.Rows == 0 || k >= m.Cols || k <= 0 {
		return m
	}
	pool := parallel.New(workers)
	cov := covariance(m, pool)
	d := m.Cols
	components := make([][]float64, 0, k)
	rng := prng.New(0x9ca)

	work := make([]float64, d)
	for c := 0; c < k; c++ {
		// Power iteration for the dominant eigenvector of the (deflated)
		// covariance.
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.Float64() - 0.5
		}
		normalize(v)
		var lambda float64
		for iter := 0; iter < 100; iter++ {
			matVec(cov, v, work)
			l := norm(work)
			if l == 0 {
				break
			}
			for i := range v {
				v[i] = work[i] / l
			}
			if math.Abs(l-lambda) < 1e-9*math.Max(1, l) {
				lambda = l
				break
			}
			lambda = l
		}
		if lambda == 0 {
			break
		}
		components = append(components, append([]float64(nil), v...))
		// Deflate: cov -= λ v vᵀ.
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cov[i*d+j] -= lambda * v[i] * v[j]
			}
		}
	}
	out := NewMatrix(m.Rows, len(components))
	_ = pool.Run(context.Background(), m.Rows, slotChunk, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for c, comp := range components {
				var dot float64
				for j := range row {
					dot += row[j] * comp[j]
				}
				out.Set(i, c, dot)
			}
		}
		return nil
	})
	return out
}

// covariance returns the d×d covariance matrix (rows assumed centered —
// Standardize guarantees it). Row chunks accumulate into per-chunk
// partial matrices merged in chunk order; covChunk is larger than
// parChunk so the d² partials stay small relative to the input.
func covariance(m *Matrix, pool *parallel.Pool) []float64 {
	d := m.Cols
	partials, _ := parallel.Map(pool, context.Background(), m.Rows, covChunk,
		func(ci, lo, hi int) ([]float64, error) {
			part := make([]float64, d*d)
			for r := lo; r < hi; r++ {
				row := m.Row(r)
				for i := 0; i < d; i++ {
					if row[i] == 0 {
						continue
					}
					for j := i; j < d; j++ {
						part[i*d+j] += row[i] * row[j]
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
	scale := 1 / float64(maxInt(1, m.Rows-1))
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i*d+j] *= scale
			cov[j*d+i] = cov[i*d+j]
		}
	}
	return cov
}

// matVec computes out = a·x for the row-major d×d matrix a. Four output
// rows advance in lockstep, one accumulator each: every accumulator still
// adds its row's products in ascending j, so each out[i] is the same
// float64 the one-row-at-a-time loop produces, but the four add chains
// are independent and overlap in the pipeline instead of serializing on
// one. Power iteration spends nearly all of PCA here.
func matVec(a []float64, x, out []float64) {
	d := len(x)
	i := 0
	for ; i+4 <= d; i += 4 {
		// Re-slicing to d = len(x) lets the compiler drop the four bounds
		// checks from the inner loop.
		r0 := a[i*d:][:d]
		r1 := a[(i+1)*d:][:d]
		r2 := a[(i+2)*d:][:d]
		r3 := a[(i+3)*d:][:d]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < d; i++ {
		var s float64
		row := a[i*d : (i+1)*d]
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
