package grid

import (
	"fmt"
	"sort"
)

// Block is one piece of the domain decomposition: the closed vertex box
// [Lo, Hi] (inclusive bounds, in global vertex coordinates). Neighboring
// blocks share exactly one layer of vertices: the high face of one block
// coincides with the low face of the next.
type Block struct {
	ID     int
	Lo, Hi [3]int
}

// Dims returns the block's vertex extent including the shared layers.
func (b Block) Dims() Dims {
	return Dims{b.Hi[0] - b.Lo[0] + 1, b.Hi[1] - b.Lo[1] + 1, b.Hi[2] - b.Lo[2] + 1}
}

// Verts returns the number of vertices the block reads.
func (b Block) Verts() int64 { return b.Dims().Verts() }

// RefinedLo returns the block's low corner in refined-grid coordinates.
func (b Block) RefinedLo() [3]int { return [3]int{2 * b.Lo[0], 2 * b.Lo[1], 2 * b.Lo[2]} }

// RefinedHi returns the block's high corner in refined-grid coordinates.
func (b Block) RefinedHi() [3]int { return [3]int{2 * b.Hi[0], 2 * b.Hi[1], 2 * b.Hi[2]} }

// ContainsRefined reports whether refined-grid coordinate (x, y, z) lies
// in the block's closed refined box — i.e. whether the corresponding
// cell of the cubical complex is computed by this block.
func (b Block) ContainsRefined(x, y, z int) bool {
	return x >= 2*b.Lo[0] && x <= 2*b.Hi[0] &&
		y >= 2*b.Lo[1] && y <= 2*b.Hi[1] &&
		z >= 2*b.Lo[2] && z <= 2*b.Hi[2]
}

func (b Block) String() string {
	return fmt.Sprintf("block %d [%d,%d]×[%d,%d]×[%d,%d]", b.ID,
		b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}

// Decomposition is the full block layout of a domain, identical on every
// rank (it is computed deterministically from the dims and block count).
type Decomposition struct {
	Dims   Dims
	Blocks []Block

	// neighbors[i] lists the IDs of blocks whose closed boxes intersect
	// block i's closed box (including i itself), used for boundary
	// stratum classification.
	neighbors [][]int
}

// Decompose splits the domain into nblocks blocks with the paper's
// bisection algorithm: iteratively divide the longest remaining data
// dimension in half until the desired total number of blocks is
// attained. One layer of vertices is shared between the two halves of
// every split. nblocks need not be a power of two: an uneven split
// produces ⌈n/2⌉ and ⌊n/2⌋ blocks in the two halves.
func Decompose(dims Dims, nblocks int) (*Decomposition, error) {
	if dims[0] < 2 || dims[1] < 2 || dims[2] < 2 {
		return nil, fmt.Errorf("grid: domain %v too small to decompose", dims)
	}
	if nblocks < 1 {
		return nil, fmt.Errorf("grid: invalid block count %d", nblocks)
	}
	d := &Decomposition{Dims: dims}
	var rec func(lo, hi [3]int, n int) error
	rec = func(lo, hi [3]int, n int) error {
		if n == 1 {
			d.Blocks = append(d.Blocks, Block{ID: len(d.Blocks), Lo: lo, Hi: hi})
			return nil
		}
		// Longest dimension of this box, ties to x before y before z.
		axis := 0
		for a := 1; a < 3; a++ {
			if hi[a]-lo[a] > hi[axis]-lo[axis] {
				axis = a
			}
		}
		span := hi[axis] - lo[axis] // number of vertex intervals
		if span < 2 {
			return fmt.Errorf("grid: cannot split %d blocks from box of span %d along axis %d", n, span, axis)
		}
		mid := lo[axis] + span/2
		loHalfHi := hi
		loHalfHi[axis] = mid
		hiHalfLo := lo
		hiHalfLo[axis] = mid // shared vertex layer
		nLo := (n + 1) / 2
		if err := rec(lo, loHalfHi, nLo); err != nil {
			return err
		}
		return rec(hiHalfLo, hi, n-nLo)
	}
	if err := rec([3]int{0, 0, 0}, [3]int{dims[0] - 1, dims[1] - 1, dims[2] - 1}, nblocks); err != nil {
		return nil, err
	}
	d.buildNeighbors()
	return d, nil
}

func (d *Decomposition) buildNeighbors() {
	n := len(d.Blocks)
	d.neighbors = make([][]int, n)
	// Blocks are few (thousands at most per rank's view); an O(n²)
	// sweep is fine and runs once per decomposition.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if boxesTouch(d.Blocks[i], d.Blocks[j]) {
				d.neighbors[i] = append(d.neighbors[i], j)
			}
		}
		sort.Ints(d.neighbors[i])
	}
}

func boxesTouch(a, b Block) bool {
	for ax := 0; ax < 3; ax++ {
		if a.Hi[ax] < b.Lo[ax] || b.Hi[ax] < a.Lo[ax] {
			return false
		}
	}
	return true
}

// NumBlocks returns the number of blocks.
func (d *Decomposition) NumBlocks() int { return len(d.Blocks) }

// Neighbors returns the IDs of blocks (including id itself) whose closed
// boxes intersect block id's closed box.
func (d *Decomposition) Neighbors(id int) []int { return d.neighbors[id] }

// OwnersOfRefined returns the sorted IDs of all blocks whose closed
// refined boxes contain the refined coordinate, searching only the
// neighborhood of the given home block (which must contain the
// coordinate). This is the "boundary of those same blocks" set from the
// paper's pairing restriction.
func (d *Decomposition) OwnersOfRefined(home int, x, y, z int) []int {
	return d.AppendOwnersOfRefined(nil, home, x, y, z)
}

// AppendOwnersOfRefined is OwnersOfRefined appending to dst, so a scan
// over many cells can reuse one buffer. Every block spans at least one
// vertex interval per axis, so at most two blocks contain a coordinate
// along each axis and the result never holds more than 8 owners.
func (d *Decomposition) AppendOwnersOfRefined(dst []int, home int, x, y, z int) []int {
	for _, nb := range d.neighbors[home] {
		if d.Blocks[nb].ContainsRefined(x, y, z) {
			dst = append(dst, nb)
		}
	}
	return dst
}

// SharedBoundary reports whether the refined coordinate lies on a
// boundary shared by two or more blocks.
func (d *Decomposition) SharedBoundary(home int, x, y, z int) bool {
	count := 0
	for _, nb := range d.neighbors[home] {
		if d.Blocks[nb].ContainsRefined(x, y, z) {
			count++
			if count > 1 {
				return true
			}
		}
	}
	return false
}
