// Package cube indexes the cubical cell complex of one block of a
// structured grid. Cells live on the block's refined grid (2n-1 slots
// per dimension): slots with all-even coordinates are vertices (0-cells),
// one odd coordinate makes an edge (1-cell), two a quad (2-cell), three
// a voxel (3-cell). Facet/cofacet adjacency is ±1 along one axis.
//
// It also implements the total order on cells used by the discrete
// gradient construction — "improved simulation of simplicity": cells are
// compared by their vertex (value, global vertex id) pairs sorted in
// descending order, lexicographically. No two distinct cells of the same
// dimension compare equal, which removes flat-region ambiguity from the
// steepest-descent pairing.
//
// Sample values are ordered by OrderBits, which makes the order total
// for every float32: -0 and +0 tie on value (the id decides), as they
// compare equal, and every NaN, whatever its sign or payload, ties with
// every other NaN above +Inf. A block holding NaN samples therefore
// still gets one well-defined, run-independent gradient.
package cube

import (
	"math"

	"parms/internal/grid"
)

// Complex is the cell complex of one block.
type Complex struct {
	Block  grid.Block
	Domain grid.Dims
	Space  grid.AddrSpace

	// NX, NY, NZ are the block's refined-grid extents.
	NX, NY, NZ int

	vol *grid.Volume // block-local samples, dims == Block.Dims()
}

// New builds the complex for a block whose local samples are vol (the
// block's sub-volume including shared layers; vol dims must equal
// Block.Dims()). The block's refined cells must number at most
// math.MaxInt32, so that a cell index fits an int32; New panics on a
// larger block.
func New(domain grid.Dims, block grid.Block, vol *grid.Volume) *Complex {
	bd := block.Dims()
	if vol.Dims != bd {
		panic("cube: volume dims do not match block dims")
	}
	if int64(2*bd[0]-1)*int64(2*bd[1]-1)*int64(2*bd[2]-1) > math.MaxInt32 {
		panic("cube: block has more than math.MaxInt32 refined cells")
	}
	return &Complex{
		Block:  block,
		Domain: domain,
		Space:  grid.NewAddrSpace(domain),
		NX:     2*bd[0] - 1,
		NY:     2*bd[1] - 1,
		NZ:     2*bd[2] - 1,
		vol:    vol,
	}
}

// NumCells returns the number of cells in the block's complex.
func (c *Complex) NumCells() int { return c.NX * c.NY * c.NZ }

// Coords returns the local refined coordinates of a cell index. The
// division is 32-bit: New admits only blocks whose cell indices fit an
// int32 (the gradient and tracer store them so), and 32-bit division is
// the cheaper instruction.
func (c *Complex) Coords(idx int) (x, y, z int) {
	i, nx, ny := uint32(idx), uint32(c.NX), uint32(c.NY)
	q := i / nx
	return int(i - q*nx), int(q % ny), int(q / ny)
}

// Index returns the cell index at local refined coordinates.
func (c *Complex) Index(x, y, z int) int { return x + y*c.NX + z*c.NX*c.NY }

// Dim returns the dimension of a cell (number of odd local coordinates;
// local and global parities agree because block offsets are even).
func (c *Complex) Dim(idx int) int {
	x, y, z := c.Coords(idx)
	return x&1 + y&1 + z&1
}

// GlobalAddr returns the cell's global address in the dataset's refined
// grid.
func (c *Complex) GlobalAddr(idx int) grid.Addr {
	x, y, z := c.Coords(idx)
	return c.Space.Encode(x+2*c.Block.Lo[0], y+2*c.Block.Lo[1], z+2*c.Block.Lo[2])
}

// LocalFromGlobal converts a global address to a local cell index,
// reporting whether the cell lies in this block.
func (c *Complex) LocalFromGlobal(a grid.Addr) (int, bool) {
	gx, gy, gz := c.Space.Decode(a)
	x := gx - 2*c.Block.Lo[0]
	y := gy - 2*c.Block.Lo[1]
	z := gz - 2*c.Block.Lo[2]
	if x < 0 || x >= c.NX || y < 0 || y >= c.NY || z < 0 || z >= c.NZ {
		return 0, false
	}
	return c.Index(x, y, z), true
}

// Facets appends the facets (codimension-1 faces) of a cell to buf and
// returns it. Facets always lie inside the block's closed box, because
// odd coordinates are strictly interior to the refined extent.
func (c *Complex) Facets(idx int, buf []int) []int {
	x, y, z := c.Coords(idx)
	if x&1 == 1 {
		buf = append(buf, idx-1, idx+1)
	}
	if y&1 == 1 {
		buf = append(buf, idx-c.NX, idx+c.NX)
	}
	if z&1 == 1 {
		buf = append(buf, idx-c.NX*c.NY, idx+c.NX*c.NY)
	}
	return buf
}

// Cofacets appends the cofacets (codimension-1 cofaces) of a cell that
// lie inside the block to buf and returns it.
func (c *Complex) Cofacets(idx int, buf []int) []int {
	x, y, z := c.Coords(idx)
	if x&1 == 0 {
		if x > 0 {
			buf = append(buf, idx-1)
		}
		if x < c.NX-1 {
			buf = append(buf, idx+1)
		}
	}
	if y&1 == 0 {
		if y > 0 {
			buf = append(buf, idx-c.NX)
		}
		if y < c.NY-1 {
			buf = append(buf, idx+c.NX)
		}
	}
	if z&1 == 0 {
		if z > 0 {
			buf = append(buf, idx-c.NX*c.NY)
		}
		if z < c.NZ-1 {
			buf = append(buf, idx+c.NX*c.NY)
		}
	}
	return buf
}

// Samples returns the block-local samples, x fastest. A vertex's index
// into this slice is its block-local vertex index, and because block
// offsets are shared by all of a block's vertices, the local index
// order equals the global vertex id order.
func (c *Complex) Samples() []float32 { return c.vol.Data }

// OrderBits maps a sample value to a key whose unsigned integer order is
// the value order of the simulation of simplicity: -0 and +0 map to the
// same key, and every NaN maps to one key above +Inf.
func OrderBits(v float32) uint32 {
	b := math.Float32bits(v)
	switch {
	case v != v:
		b = 0x7fc00000 // the canonical quiet NaN
	case v == 0:
		b = 0 // -0 == +0
	}
	if b&(1<<31) != 0 {
		return ^b // negative: larger magnitude sorts lower
	}
	return b | 1<<31
}

// VertKey is one vertex of a cell: its sample value and global vertex
// id. The id makes every vertex distinct, so sorting keys gives a strict
// total order.
type VertKey struct {
	Val float32
	ID  int64
}

// Less orders vertex keys by value under OrderBits, then id.
func (a VertKey) Less(b VertKey) bool {
	if ka, kb := OrderBits(a.Val), OrderBits(b.Val); ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

// VertKeys fills buf with the cell's vertex keys sorted in descending
// order and returns the filled prefix. buf must have capacity ≥ 8.
func (c *Complex) VertKeys(idx int, buf []VertKey) []VertKey {
	x, y, z := c.Coords(idx)
	keys := buf[:0]
	x0, x1 := x/2, (x+1)/2
	y0, y1 := y/2, (y+1)/2
	z0, z1 := z/2, (z+1)/2
	bd := c.vol.Dims
	gnx := int64(c.Domain[0])
	gnxy := gnx * int64(c.Domain[1])
	for vz := z0; vz <= z1; vz++ {
		for vy := y0; vy <= y1; vy++ {
			for vx := x0; vx <= x1; vx++ {
				gid := int64(vx+c.Block.Lo[0]) +
					int64(vy+c.Block.Lo[1])*gnx +
					int64(vz+c.Block.Lo[2])*gnxy
				v := c.vol.Data[int64(vx)+int64(vy)*int64(bd[0])+int64(vz)*int64(bd[0])*int64(bd[1])]
				keys = append(keys, VertKey{Val: v, ID: gid})
			}
		}
	}
	// Insertion sort, descending; at most 8 elements.
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keys[j].Less(k) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
	return keys
}

// Value returns the cell's function value: the maximum of its vertex
// samples, as the paper assigns values to higher-dimensional cells.
func (c *Complex) Value(idx int) float32 {
	var buf [8]VertKey
	return c.VertKeys(idx, buf[:])[0].Val
}

// MaxVertID returns the global id of the cell's maximal vertex under the
// (value, id) order — the deterministic representative used for
// tie-breaking between cells.
func (c *Complex) MaxVertID(idx int) int64 {
	var buf [8]VertKey
	return c.VertKeys(idx, buf[:])[0].ID
}

// Compare imposes the simulation-of-simplicity total order: it returns
// -1, 0 or +1 as cell a sorts before, equal to, or after cell b. Cells
// of equal dimension never compare equal unless a == b. Cells of
// different dimension are compared by their key sequences directly
// (shorter prefix that matches sorts first), which is only used for
// diagnostics. Compare is the direct statement of the order: the
// gradient construction derives the same order from vertex ranks, and
// its tests hold it to Compare.
func (c *Complex) Compare(a, b int) int {
	if a == b {
		return 0
	}
	var bufA, bufB [8]VertKey
	ka := c.VertKeys(a, bufA[:])
	kb := c.VertKeys(b, bufB[:])
	n := len(ka)
	if len(kb) < n {
		n = len(kb)
	}
	for i := 0; i < n; i++ {
		if ka[i].Less(kb[i]) {
			return -1
		}
		if kb[i].Less(ka[i]) {
			return 1
		}
	}
	switch {
	case len(ka) < len(kb):
		return -1
	case len(ka) > len(kb):
		return 1
	}
	return 0
}

// OnBlockFace reports whether the cell touches the block's face in the
// given axis and side (side 0 = low face, 1 = high face).
func (c *Complex) OnBlockFace(idx, axis, side int) bool {
	x, y, z := c.Coords(idx)
	coord := [3]int{x, y, z}[axis]
	if side == 0 {
		return coord == 0
	}
	lim := [3]int{c.NX, c.NY, c.NZ}[axis]
	return coord == lim-1
}

// OnAnyFace reports whether the cell touches any face of the block.
func (c *Complex) OnAnyFace(idx int) bool {
	x, y, z := c.Coords(idx)
	return x == 0 || y == 0 || z == 0 || x == c.NX-1 || y == c.NY-1 || z == c.NZ-1
}

// GlobalCoords returns the cell's global refined coordinates.
func (c *Complex) GlobalCoords(idx int) (x, y, z int) {
	lx, ly, lz := c.Coords(idx)
	return lx + 2*c.Block.Lo[0], ly + 2*c.Block.Lo[1], lz + 2*c.Block.Lo[2]
}
