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
// computed directly by eigSym, in descending eigenvalue order. PCA keeps
// the fewest leading components that carry keptVariance (99%) of the
// variance, and at most k of them (see keptComponents), so the output
// usually has far fewer columns than the input: 32–34 on the paper's
// feature matrices, whose covariance has rank 77–88. The components are
// orthonormal, so the projection is a true one: its sum of squares never
// exceeds the input's and, unless k cuts the components short, is at
// least keptVariance of it. A non-finite covariance keeps no component.
//
// Every matrix goes through the same rule, one of at most k columns too;
// only an empty matrix or k <= 0 returns the input unchanged. The
// covariance fans out over its output rows (see covariance), the
// eigensolver runs serially on the d×d covariance, and the projection
// fills disjoint rows, four components per pass over a row.
func PCA(m *Matrix, k, workers int) *Matrix {
	if m.Rows == 0 || k <= 0 {
		return m
	}
	pool := parallel.New(workers)
	d := m.Cols
	vals, vecs := eigSym(covariance(m, pool), d)
	r := keptComponents(vals, k)
	components := vecs[:r*d]
	out := NewMatrix(m.Rows, r)
	_ = pool.Run(context.Background(), m.Rows, slotChunk, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			project(m.Row(i), components, out.Row(i))
		}
		return nil
	})
	return out
}

// keptVariance is the share of the total variance that PCA's kept
// components carry at least. At 0.99 the last percent, spread over some
// fifty components of the paper's feature matrices, is dropped.
const keptVariance = 0.99

// keptComponents returns how many leading components PCA keeps, given the
// covariance's eigenvalues in descending order: the smallest r whose
// eigenvalues, summed in that order, reach keptVariance of the total, and
// no more than k. The total is the sum of the eigenvalues above the
// numerical-rank cutoff d·ε·λ_max, so r never passes that rank either; a
// NaN λ_max makes the rank, and r, 0.
func keptComponents(vals []float64, k int) int {
	d := len(vals)
	rank := 0
	var total float64
	for rank < d && vals[rank] > float64(d)*epsilon*vals[0] {
		total += vals[rank]
		rank++
	}
	r := 0
	var sum float64
	for r < min(k, rank) && sum < keptVariance*total {
		sum += vals[r]
		r++
	}
	return r
}

// epsilon is the float64 machine epsilon, 2⁻⁵².
const epsilon = 0x1p-52

// project sets dst[c] to the dot product of row with component c (row c
// of components, len(row) wide). Four components advance in lockstep over
// one pass of the row, one accumulator each adding its terms in ascending
// column order, so every dst[c] is the one-component-at-a-time dot product
// bit for bit; a one-wide step finishes a rank that is no multiple of four.
func project(row, components, dst []float64) {
	d := len(row)
	c := 0
	for ; c+4 <= len(dst); c += 4 {
		p0, p1 := components[c*d:][:d], components[(c+1)*d:][:d]
		p2, p3 := components[(c+2)*d:][:d], components[(c+3)*d:][:d]
		var s0, s1, s2, s3 float64
		for j, x := range row {
			s0 += x * p0[j]
			s1 += x * p1[j]
			s2 += x * p2[j]
			s3 += x * p3[j]
		}
		dst[c], dst[c+1], dst[c+2], dst[c+3] = s0, s1, s2, s3
	}
	for ; c < len(dst); c++ {
		p := components[c*d:][:d]
		var s float64
		for j, x := range row {
			s += x * p[j]
		}
		dst[c] = s
	}
}

// covariance returns the d×d covariance matrix (rows assumed centered —
// Standardize guarantees it). Element (i, j) is the sum over rows of
// x_ri·x_rj, skipping the rows whose x_ri is 0, in row order within each
// covChunk of rows; the chunks' partial sums are added to a zero in chunk
// order, and the total is scaled by 1/(n−1). That grouping is the
// contract. The work fans out over output rows — the upper triangle's row
// i, from the diagonal, is one task — so a matrix of one covChunk still
// spreads over the pool; each task walks the chunks in order and, for
// every chunk after the first, sums into a scratch row that it then adds
// to the output row (the first chunk sums into the zeroed output row
// directly: adding a partial to zero returns it unchanged, since a sum
// that starts at +0 never reaches −0).
func covariance(m *Matrix, pool *parallel.Pool) []float64 {
	d := m.Cols
	cov := make([]float64, d*d)
	nc := parallel.NumChunks(m.Rows, covChunk)
	scale := 1 / float64(max(1, m.Rows-1))
	_ = pool.Run(context.Background(), d, 1, func(_, i, _ int) error {
		dst := cov[i*d+i : (i+1)*d]
		var part []float64
		for ci := 0; ci < nc; ci++ {
			lo, hi := ci*covChunk, min((ci+1)*covChunk, m.Rows)
			if ci == 0 {
				covRow(m, i, lo, hi, dst)
				continue
			}
			if part == nil {
				part = make([]float64, len(dst))
			} else {
				clear(part)
			}
			covRow(m, i, lo, hi, part)
			for j, p := range part {
				dst[j] += p
			}
		}
		for j := range dst {
			dst[j] *= scale
		}
		return nil
	})
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			cov[j*d+i] = cov[i*d+j]
		}
	}
	return cov
}

// covRow adds x_ri·x_rj to dst[j−i], for every j >= i and every row r in
// [lo, hi) whose x_ri is not 0, in row order. Four rows are folded per
// load and store of dst: each element takes its four terms in row order,
// so it is the row-at-a-time sum bit for bit. A block of four holding a
// zero x_ri, and the rows past the last whole block, go one row at a time.
func covRow(m *Matrix, i, lo, hi int, dst []float64) {
	d := m.Cols
	r := lo
	for ; r+4 <= hi; r += 4 {
		y0, y1 := m.Data[r*d+i:][:len(dst)], m.Data[(r+1)*d+i:][:len(dst)]
		y2, y3 := m.Data[(r+2)*d+i:][:len(dst)], m.Data[(r+3)*d+i:][:len(dst)]
		x0, x1, x2, x3 := y0[0], y1[0], y2[0], y3[0]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			for q := r; q < r+4; q++ {
				covAddRow(m.Data[q*d+i:][:len(dst)], dst)
			}
			continue
		}
		for j := range dst {
			s := dst[j]
			s += x0 * y0[j]
			s += x1 * y1[j]
			s += x2 * y2[j]
			s += x3 * y3[j]
			dst[j] = s
		}
	}
	for ; r < hi; r++ {
		covAddRow(m.Data[r*d+i:][:len(dst)], dst)
	}
}

// covAddRow adds y[0]·y[j] to dst[j] for every j, unless y[0] is 0.
func covAddRow(y, dst []float64) {
	x := y[0]
	if x == 0 {
		return
	}
	for j, v := range y {
		dst[j] += x * v
	}
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
