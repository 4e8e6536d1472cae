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

// neighborScratch is the candidate and distance buffers of one task's
// neighbor queries, reused from one query to the next.
type neighborScratch struct {
	cand []int
	dist []float64
}

// neighbors returns every point above i (index j > i) within eps of point
// i, sorted ascending: row i's share of the pairs, each pair checked from
// its lower end only (epsNeighbors mirrors them into the lists below each
// point). It gathers the members above i of the 3^gdims adjacent cells
// into sc's candidate buffer and checks them with sqDistsWithin against
// eps², keeping a distance at most eps² (so a NaN distance is never a
// neighbor). sc may be nil, for buffers of the call's own; the returned
// list is always freshly allocated, exactly its length.
func (g *gridIndex) neighbors(i int, sc *neighborScratch) []int32 {
	if sc == nil {
		sc = new(neighborScratch)
	}
	cand := sc.cand[:0]
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
					if j > int32(i) {
						cand = append(cand, int(j))
					}
				}
			}
		}
	}
	sc.cand = cand
	if cap(sc.dist) < len(cand) {
		sc.dist = make([]float64, len(cand), cap(cand))
	}
	dist := sc.dist[:len(cand)]
	sqDistsWithin(g.m.Row(i), g.m, cand, g.eps2, dist)
	hits := 0
	for _, d := range dist {
		if d <= g.eps2 {
			hits++
		}
	}
	if hits == 0 {
		return nil
	}
	out := make([]int32, 0, hits)
	for c, d := range dist {
		if d <= g.eps2 {
			out = append(out, int32(cand[c]))
		}
	}
	slices.Sort(out)
	return out
}
