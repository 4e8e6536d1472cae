package cluster

import "slices"

// maxGridDims caps how many leading coordinates the spatial index bins.
// PCA orders its components by descending eigenvalue, so after PCA the
// leading columns carry the most variance by construction and binning on
// them prunes the bulk of the candidate pairs; the remaining dimensions
// are handled by the exact distance check on each candidate.
const maxGridDims = 3

// gridKey identifies one cell: the floor(x/eps) quantization of the first
// gdims coordinates (unused slots stay zero).
type gridKey [maxGridDims]int64

// gridIndex is an exact eps-neighborhood index: points are binned into
// cells of side eps on the first gdims coordinates. Any two points within
// eps of each other in the full space differ by at most one cell per
// binned coordinate, so scanning the 3^gdims adjacent cells and verifying
// with the exact distance yields precisely the brute-force neighbor set.
type gridIndex struct {
	m     *Matrix
	eps2  float64
	inv   float64 // 1/eps
	gdims int
	keys  []gridKey           // per-point cell, cached
	cells map[gridKey][]int32 // cell -> member points, ascending
}

// newGridIndex builds the index in one O(n) pass. Points are inserted in
// row order, so every cell's member list is ascending.
func newGridIndex(m *Matrix, eps float64) *gridIndex {
	g := &gridIndex{
		m:     m,
		eps2:  eps * eps,
		inv:   1 / eps,
		gdims: min(m.Cols, maxGridDims),
		keys:  make([]gridKey, m.Rows),
		cells: make(map[gridKey][]int32, m.Rows/4+1),
	}
	for i := 0; i < m.Rows; i++ {
		k := g.cellOf(m.Row(i))
		g.keys[i] = k
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

func (g *gridIndex) cellOf(row []float64) gridKey {
	var k gridKey
	for d := 0; d < g.gdims; d++ {
		// Truncate-toward-negative-infinity without math.Floor's call
		// overhead; coordinates are standardized so |x/eps| stays far
		// below the int64 range.
		q := int64(row[d] * g.inv)
		if row[d]*g.inv < float64(q) {
			q--
		}
		k[d] = q
	}
	return k
}

// neighbors returns every point within eps of point i (excluding i),
// sorted ascending — the same list, in the same order, that the brute
// O(n²) scan produces. buf is an optional reusable backing array.
func (g *gridIndex) neighbors(i int, buf []int32) []int32 {
	out := buf[:0]
	row := g.m.Row(i)
	base := g.keys[i]

	// Offset ranges: ±1 on binned coordinates, pinned to 0 beyond gdims.
	var span [maxGridDims]int64
	for d := 0; d < g.gdims; d++ {
		span[d] = 1
	}
	var probe gridKey
	for o0 := -span[0]; o0 <= span[0]; o0++ {
		probe[0] = base[0] + o0
		for o1 := -span[1]; o1 <= span[1]; o1++ {
			probe[1] = base[1] + o1
			for o2 := -span[2]; o2 <= span[2]; o2++ {
				probe[2] = base[2] + o2
				for _, j := range g.cells[probe] {
					if j == int32(i) {
						continue
					}
					if sqDistBounded(row, g.m.Row(int(j)), g.eps2) {
						out = append(out, j)
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// sqDistBounded reports whether the squared distance of a and b is at
// most bound, bailing out as soon as the partial sum exceeds it. Terms
// are non-negative, so the verdict matches the full sqDist comparison
// exactly.
func sqDistBounded(a, b []float64, bound float64) bool {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
		if s > bound {
			return false
		}
	}
	return true
}
