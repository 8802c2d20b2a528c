package gradient

import (
	"slices"
	"sync"

	"parms/internal/cube"
)

// blockScratch is the working memory of one block's pairing sweeps: the
// ranking's two scatter buffers and its sort keys, and the sweep order.
// It is garbage once the field is assigned, so scratchPool recycles it
// across blocks. It is pooled as one struct so each buffer keeps its
// role and its size from block to block.
type blockScratch struct {
	rank, byRank []int32
	keys         []uint32
	order        []int32
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// ranking is the simulation-of-simplicity order of one block, held as a
// rank per vertex. A d-cell's SoS key is its vertex ranks sorted
// descending, compared lexicographically; vertices are distinct under
// the order, so cells of one dimension never tie.
type ranking struct {
	nvx, nvy   int     // vertex-grid extents in x and y
	nvz        int     // vertex-grid extent in z
	rank       []int32 // block-local vertex index -> rank
	byRank     []int32 // rank -> block-local vertex index
	vStride    [3]int  // vertex-index step along each axis
	cellStride [3]int  // refined-cell-index step along each axis

	// The candidates of a vertex's lower star, as offsets from the
	// vertex and its cell, built once per block.
	edges [6]starEdge
	quads [12]starQuad
}

// starEdge is an edge of a vertex's star: the step along one axis, and
// the other vertex and the edge cell as offsets.
type starEdge struct {
	axis, step int
	dv, dc     int
}

// starQuad is a quad of a vertex's star: the steps along two axes, and
// as offsets the two edge neighbours a and b, the diagonal vertex d and
// the quad cell.
type starQuad struct {
	axes, steps    [2]int
	da, db, dd, dc int
}

// newRanking sorts the block's vertices once, by (OrderBits, local
// vertex index). Local index order is global id order, so this sorts
// the vertices by (value, global id) exactly as cube.VertKey.Less does.
// The sort is a stable LSD radix sort on the 32-bit OrderBits alone:
// it starts from ascending index order and stability keeps that order
// among equal values. rank and byRank are its two scatter buffers, so
// the only scratch is the key array; the four passes swap them an even
// number of times, which leaves the sorted order in byRank. All three
// arrays are s's buffers, overwritten whole, so the ranking is valid
// only until s is reused.
func newRanking(c *cube.Complex, s *blockScratch) *ranking {
	data := c.Samples()
	s.rank = slices.Grow(s.rank[:0], len(data))[:len(data)]
	s.byRank = slices.Grow(s.byRank[:0], len(data))[:len(data)]
	s.keys = slices.Grow(s.keys[:0], len(data))[:len(data)]
	r := &ranking{
		nvx:        (c.NX + 1) / 2,
		nvy:        (c.NY + 1) / 2,
		nvz:        (c.NZ + 1) / 2,
		rank:       s.rank,
		byRank:     s.byRank,
		cellStride: [3]int{1, c.NX, c.NX * c.NY},
	}
	r.vStride = [3]int{1, r.nvx, r.nvx * r.nvy}
	r.buildStarTables()

	keys := s.keys
	var hist [4][256]int32
	for i, v := range data {
		k := cube.OrderBits(v)
		keys[i] = k
		hist[0][k&0xff]++
		hist[1][k>>8&0xff]++
		hist[2][k>>16&0xff]++
		hist[3][k>>24]++
	}
	src, dst := r.byRank, r.rank
	for i := range src {
		src[i] = int32(i)
	}
	for pass := range hist {
		shift := 8 * pass
		h := &hist[pass]
		var sum int32
		for d, n := range h {
			h[d] = sum
			sum += n
		}
		for _, v := range src {
			d := keys[v] >> shift & 0xff
			dst[h[d]] = v
			h[d]++
		}
		src, dst = dst, src
	}
	for rk, v := range r.byRank {
		r.rank[v] = int32(rk)
	}
	return r
}

// buildStarTables fills the lower-star offset tables.
func (r *ranking) buildStarTables() {
	n := 0
	for a := 0; a < 3; a++ {
		for s := -1; s <= 1; s += 2 {
			r.edges[n] = starEdge{a, s, s * r.vStride[a], s * r.cellStride[a]}
			n++
		}
	}
	n = 0
	for a := 0; a < 2; a++ {
		for b := a + 1; b < 3; b++ {
			for sa := -1; sa <= 1; sa += 2 {
				for sb := -1; sb <= 1; sb += 2 {
					da, db := sa*r.vStride[a], sb*r.vStride[b]
					r.quads[n] = starQuad{[2]int{a, b}, [2]int{sa, sb},
						da, db, da + db, sa*r.cellStride[a] + sb*r.cellStride[b]}
					n++
				}
			}
		}
	}
}

// vertexCoords returns the vertex-grid coordinates of a vertex index.
func (r *ranking) vertexCoords(v int) [3]int {
	return [3]int{v % r.nvx, (v / r.nvx) % r.nvy, v / (r.nvx * r.nvy)}
}

// cellCounts returns the number of cells of each dimension in the block.
func (r *ranking) cellCounts() [4]int {
	n := [3]int{r.nvx, r.nvy, r.nvz}
	e := [3]int{r.nvx - 1, r.nvy - 1, r.nvz - 1} // intervals per axis
	return [4]int{
		n[0] * n[1] * n[2],
		e[0]*n[1]*n[2] + n[0]*e[1]*n[2] + n[0]*n[1]*e[2],
		e[0]*e[1]*n[2] + e[0]*n[1]*e[2] + n[0]*e[1]*e[2],
		e[0] * e[1] * e[2],
	}
}

// rankedCell is a candidate cell of one vertex's lower star with the
// part of its SoS key that follows the shared top vertex.
type rankedCell struct {
	key  uint64
	cell int32
}

// appendCells appends the block's d-cells (d ≤ 2) to buf in ascending
// SoS order without a global sort. Vertices are walked in rank order;
// each emits the d-cells whose highest vertex it is — its lower star in
// dimension d — after a short insertion sort on the rest of the key:
// an edge by the rank of its other vertex, a quad by the top two ranks
// of its other three vertices. Three corners of a unit square fix the
// square, so those two ranks already tell a vertex's quads apart.
// The star comes from the block's offset tables; only a vertex on a
// block face checks that each step stays in the block.
func (r *ranking) appendCells(buf []int32, d int) []int32 {
	ext := [3]int{r.nvx, r.nvy, r.nvz}
	in := func(vc [3]int, a, s int) bool { q := vc[a] + s; return q >= 0 && q < ext[a] }
	var star [12]rankedCell
	for top, v := range r.byRank {
		vc := r.vertexCoords(int(v))
		cell := 2*vc[0]*r.cellStride[0] + 2*vc[1]*r.cellStride[1] + 2*vc[2]*r.cellStride[2]
		if d == 0 {
			buf = append(buf, int32(cell))
			continue
		}
		interior := vc[0] > 0 && vc[0] < ext[0]-1 && vc[1] > 0 && vc[1] < ext[1]-1 && vc[2] > 0 && vc[2] < ext[2]-1
		n := 0
		if d == 1 {
			for _, e := range &r.edges {
				if !interior && !in(vc, e.axis, e.step) {
					continue
				}
				if o := r.rank[int(v)+e.dv]; int(o) < top {
					star[n] = rankedCell{uint64(o), int32(cell + e.dc)}
					n++
				}
			}
		} else {
			for _, q := range &r.quads {
				if !interior && !(in(vc, q.axes[0], q.steps[0]) && in(vc, q.axes[1], q.steps[1])) {
					continue
				}
				ra, rb, rd := r.rank[int(v)+q.da], r.rank[int(v)+q.db], r.rank[int(v)+q.dd]
				hi := max(ra, rb, rd)
				if int(hi) >= top {
					continue
				}
				mid := max(min(ra, rb), min(max(ra, rb), rd))
				star[n] = rankedCell{uint64(hi)<<32 | uint64(mid), int32(cell + q.dc)}
				n++
			}
		}
		for i := 1; i < n; i++ {
			x := star[i]
			j := i - 1
			for j >= 0 && star[j].key > x.key {
				star[j+1] = star[j]
				j--
			}
			star[j+1] = x
		}
		for _, rc := range star[:n] {
			buf = append(buf, rc.cell)
		}
	}
	return buf
}

// cofacetKey orders the cofacets of one cell: of the cofacets one step
// s = ±1 along an even axis a of the cell at refined coordinates p, the
// one with the smaller key is the smaller in the SoS order. Two
// cofacets of the cell share its vertices, so their descending rank
// tuples first differ among the vertices they add — those of the facet
// of the cofacet opposite the cell, two steps along a. The added sets
// of distinct cofacets are disjoint, so their top ranks differ and
// decide the comparison.
func (r *ranking) cofacetKey(p [3]int, a, s int) int32 {
	p[a] += 2 * s
	top := int32(-1)
	for vz := p[2] / 2; vz <= (p[2]+1)/2; vz++ {
		for vy := p[1] / 2; vy <= (p[1]+1)/2; vy++ {
			for vx := p[0] / 2; vx <= (p[0]+1)/2; vx++ {
				top = max(top, r.rank[vx+vy*r.vStride[1]+vz*r.vStride[2]])
			}
		}
	}
	return top
}
