package cluster

import (
	"context"
	"math"
	"sort"

	"repro/internal/parallel"
)

// PCA projects the (already standardized) matrix onto its principal
// components — the dimensional reduction step the paper applies before
// k-means. The components are the eigenvectors of the covariance matrix,
// computed directly by eigSym, in descending eigenvalue order: at most k
// of them, and only those whose eigenvalue exceeds d·ε·λ_max (the
// covariance's numerical rank), so the output can have fewer than k
// columns. The components are orthonormal, so the projection is a true
// one: its sum of squares never exceeds the input's, and equals it when
// every nonzero eigenvalue is kept.
//
// If k >= m.Cols the input is returned unchanged (projection would be a
// rotation with no reduction, and the clustering metrics are rotation-
// invariant anyway). The covariance accumulation fans out over fixed-size
// row chunks whose partials merge in chunk order, the eigensolver runs
// serially on the d×d covariance, and the projection fills disjoint rows.
func PCA(m *Matrix, k, workers int) *Matrix {
	if m.Rows == 0 || k >= m.Cols || k <= 0 {
		return m
	}
	pool := parallel.New(workers)
	d := m.Cols
	vals, vecs := eigSym(covariance(m, pool), d)
	rank := 0
	for rank < k && vals[rank] > float64(d)*epsilon*vals[0] {
		rank++
	}
	components := vecs[:rank*d]
	out := NewMatrix(m.Rows, rank)
	_ = pool.Run(context.Background(), m.Rows, slotChunk, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			dst := out.Row(i)
			for c := range dst {
				comp := components[c*d:][:d]
				var dot float64
				for j, x := range row {
					dot += x * comp[j]
				}
				dst[c] = dot
			}
		}
		return nil
	})
	return out
}

// epsilon is the float64 machine epsilon, 2⁻⁵².
const epsilon = 0x1p-52

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
				for i, x := range row {
					if x == 0 {
						continue
					}
					// Row i of the upper triangle, from the diagonal.
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

// eigSym returns the eigenvalues of the symmetric row-major n×n matrix a
// in descending order (ties keep the solver's order) and the matching
// unit eigenvectors as the rows of vecs, each signed so that its
// largest-magnitude entry (the lowest-indexed one on a tie) is positive.
// It overwrites a.
//
// The solver is EISPACK's tred2 (Householder reduction to tridiagonal
// form) followed by tql2 (implicit-shift QL), in the formulation of the
// JAMA library. Both work in place on z = Vᵀ instead of the eigenvector
// matrix V: a is symmetric, so it already is z at the start, and every
// V[r][c] of the original reads z[c*n+r]. That turns the column walks of
// both phases into row walks and leaves eigenvector j in row j of z.
func eigSym(a []float64, n int) (vals, vecs []float64) {
	d := make([]float64, n) // diagonal, then eigenvalues
	e := make([]float64, n) // subdiagonal
	tred2(a, d, e, n)
	tql2(a, d, e, n)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })
	vals = make([]float64, n)
	vecs = make([]float64, n*n)
	for i, src := range order {
		vals[i] = d[src]
		v := vecs[i*n:][:n]
		copy(v, a[src*n:][:n])
		big := 0
		for j := range v {
			if math.Abs(v[j]) > math.Abs(v[big]) {
				big = j
			}
		}
		if v[big] < 0 {
			for j := range v {
				v[j] = -v[j]
			}
		}
	}
	return vals, vecs
}

// tred2 reduces the symmetric matrix held in z to tridiagonal form by
// Householder similarity transformations, accumulating them in z: on
// return d is the diagonal, e[1:] the subdiagonal and z holds Vᵀ, the
// transposed orthogonal transformation (see eigSym).
func tred2(z, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			zj := z[j*n:][:i]
			z[i*n+j] = f
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f = d[j]
			g = e[j]
			zj := z[j*n:][:i]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = z[j*n+i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		h := d[i+1]
		next := z[(i+1)*n:][:i+1]
		if h != 0 {
			for k := range next {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n:][:i+1]
				var g float64
				for k, x := range next {
					g += x * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		for k := range next {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tql2 finds the eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix (d, e) by the QL method with implicit shifts,
// applying each rotation to the rows of z: on return d holds the
// eigenvalues (unordered) and row j of z the eigenvector of d[j].
func tql2(z, d, e []float64, n int) {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element. e[n-1] is zero, so the scan
		// stops at n-1 at the latest (also when a NaN defeats the test).
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > epsilon*tst1 {
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		for m > l {
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])

				// Accumulate the rotation into rows i and i+1.
				zi, zi1 := z[i*n:][:n], z[(i+1)*n:][:n]
				for k, x := range zi {
					y := zi1[k]
					zi1[k] = s*x + c*y
					zi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > epsilon*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}
