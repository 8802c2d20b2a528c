package gradient

import (
	"slices"

	"parms/internal/cube"
)

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
}

// newRanking sorts the block's vertices once. Each key packs the
// sample's OrderBits above the block-local vertex index; local index
// order is global id order, so sorting the keys sorts the vertices by
// (value, global id) exactly as cube.VertKey.Less does.
func newRanking(c *cube.Complex) *ranking {
	data := c.Samples()
	r := &ranking{
		nvx:        (c.NX + 1) / 2,
		nvy:        (c.NY + 1) / 2,
		nvz:        (c.NZ + 1) / 2,
		rank:       make([]int32, len(data)),
		byRank:     make([]int32, len(data)),
		cellStride: [3]int{1, c.NX, c.NX * c.NY},
	}
	r.vStride = [3]int{1, r.nvx, r.nvx * r.nvy}
	keys := make([]uint64, len(data))
	for i, v := range data {
		keys[i] = uint64(cube.OrderBits(v))<<32 | uint64(i)
	}
	slices.Sort(keys)
	for rk, k := range keys {
		v := int32(uint32(k))
		r.byRank[rk] = v
		r.rank[v] = int32(rk)
	}
	return r
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
func (r *ranking) appendCells(buf []int32, d int) []int32 {
	var star [12]rankedCell
	for top, v := range r.byRank {
		vc := r.vertexCoords(int(v))
		cell := 2*vc[0]*r.cellStride[0] + 2*vc[1]*r.cellStride[1] + 2*vc[2]*r.cellStride[2]
		n := 0
		switch d {
		case 0:
			buf = append(buf, int32(cell))
		case 1:
			for a := 0; a < 3; a++ {
				for _, s := range r.steps(vc, a) {
					if s == 0 {
						continue
					}
					if o := r.rank[int(v)+s*r.vStride[a]]; int(o) < top {
						star[n] = rankedCell{uint64(o), int32(cell + s*r.cellStride[a])}
						n++
					}
				}
			}
		case 2:
			for a := 0; a < 2; a++ {
				for b := a + 1; b < 3; b++ {
					for _, sa := range r.steps(vc, a) {
						if sa == 0 {
							continue
						}
						for _, sb := range r.steps(vc, b) {
							if sb == 0 {
								continue
							}
							ra := r.rank[int(v)+sa*r.vStride[a]]
							rb := r.rank[int(v)+sb*r.vStride[b]]
							rd := r.rank[int(v)+sa*r.vStride[a]+sb*r.vStride[b]]
							hi := max(ra, rb, rd)
							if int(hi) >= top {
								continue
							}
							mid := max(min(ra, rb), min(max(ra, rb), rd))
							star[n] = rankedCell{uint64(hi)<<32 | uint64(mid),
								int32(cell + sa*r.cellStride[a] + sb*r.cellStride[b])}
							n++
						}
					}
				}
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

// steps returns the in-block unit steps from vertex coordinates vc along
// axis a: -1 and +1, with 0 standing in for a step that leaves the
// block.
func (r *ranking) steps(vc [3]int, a int) [2]int {
	ext := [3]int{r.nvx, r.nvy, r.nvz}[a]
	s := [2]int{-1, 1}
	if vc[a] == 0 {
		s[0] = 0
	}
	if vc[a] == ext-1 {
		s[1] = 0
	}
	return s
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
