// Package gradient computes the discrete gradient vector field of one
// block, following the greedy steepest-descent construction of Gyulassy
// et al. (2008) as described in section IV-C of the paper: cells are
// processed by increasing dimension and then increasing function value
// (under the simulation-of-simplicity total order); a d-cell is paired
// with the steepest of its unassigned cofacets for which it is the only
// unassigned facet, and is marked critical otherwise.
//
// To allow blocks to be glued during the merge stage, pairing is
// restricted on shared block boundaries: a cell lying on the boundary of
// two or more blocks may only pair with cells lying on the boundary of
// those same blocks. The pairing decisions inside such a boundary
// stratum then depend only on the stratum's own cells and values, so two
// neighboring blocks compute byte-identical gradients on their shared
// face.
//
// The SoS order comes from sorting the block's vertices once, with a
// radix sort on their values, not from a comparator sort over cells:
// each dimension's cells are emitted by walking the vertices in rank
// order and expanding each vertex's lower star in place (order.go), and
// cofacets are compared by rank as well.
// Work.SortedItems nonetheless bills the paper's cell sort, so the
// virtual-time cost model is unchanged by this host-side shortcut. The
// ranking and the sweep order are scratch that is garbage once the
// field is assigned, so a sync.Pool recycles them across blocks. The
// worker pool covers only the vertex successor array built after
// pairing.
//
// The result is stored in one byte per refined-grid cell, exactly as the
// paper's implementation does: three bits of pair direction, plus flags
// for paired/critical state and for the tail (lower-dimensional end) of
// a pair. A second byte per cell holds the cell's boundary stratum id.
package gradient

import (
	"fmt"
	"math/bits"
	"slices"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/vtime"
)

// State byte layout.
const (
	dirMask    = 0x07 // bits 0-2: direction of the paired neighbor
	flagPaired = 0x08 // bit 3: cell is half of a gradient vector
	flagCrit   = 0x10 // bit 4: cell is critical
	flagTail   = 0x20 // bit 5: cell is the lower-dimensional end of its pair
)

// Field is the discrete gradient vector field of one block, stored in
// structure-of-arrays form: one state byte and one stratum byte per
// refined-grid cell, plus the flat vertex successor array the tracing
// kernels iterate. A tail's head cofacet is read off its state byte
// (HeadOf), not stored.
type Field struct {
	C *cube.Complex

	state  []byte
	strata []uint8
	// dirStep[d] is the cell-index offset of the neighbor in direction
	// code d: −x, +x, −y, +y, −z, +z.
	dirStep [6]int

	// The vertex successor array, built by successorsKernel after
	// assignment.
	succ0         []int32 // vertex -> next vertex on its V-path chain, -1 at criticals
	nvx, nvy, nvz int     // vertex-grid extents

	// Work tallies the operations spent computing the field, for the
	// virtual-time cost model.
	Work vtime.Work
}

// Compute builds the discrete gradient field for the block underlying c.
// dec supplies the global decomposition for the boundary pairing
// restriction; passing nil disables the restriction (the serial,
// single-block behaviour).
func Compute(c *cube.Complex, dec *grid.Decomposition) *Field {
	return ComputePooled(c, dec, nil)
}

// ComputePooled is Compute with an explicit intra-rank worker pool for
// the batch kernel that builds the successor array. The ordering and
// the greedy pairing sweeps are order-dependent and stay sequential, so
// the resulting field is byte-identical for every pool width — a nil
// pool is the reference sequential path.
func ComputePooled(c *cube.Complex, dec *grid.Decomposition, pool *kernel.Pool) *Field {
	nx, nxy := c.NX, c.NX*c.NY
	f := &Field{
		C:       c,
		state:   make([]byte, c.NumCells()),
		strata:  make([]uint8, c.NumCells()),
		dirStep: [6]int{-1, 1, -nx, nx, -nxy, nxy},
	}
	f.classifyStrata(dec)
	f.assign()
	f.successorsKernel(pool)
	return f
}

// classifyStrata assigns each cell a stratum id. Interior cells (owned
// by this block alone) get stratum 0; cells on a shared boundary get an
// id interned from the sorted set of blocks whose closed boxes contain
// the cell, numbered in cell-index order of first appearance. The ids
// are stored in one byte per cell: a block of a regular grid of blocks
// has 26 strata, and the uneven cuts of a bisection give a block a few
// more, at most 42 on the decompositions TestStrataBound sweeps; more
// than 255 panics. Only the cells on the block's faces are visited,
// and one owners buffer and a fixed-size array key serve them all.
func (f *Field) classifyStrata(dec *grid.Decomposition) {
	if dec == nil {
		return // everything stratum 0
	}
	c := f.C
	lo := c.Block.Lo
	intern := map[ownerSet]uint8{}
	var owners []int
	for z := 0; z < c.NZ; z++ {
		for y := 0; y < c.NY; y++ {
			// Off the y and z faces only the two x faces are on the boundary.
			step := 1
			if z > 0 && z < c.NZ-1 && y > 0 && y < c.NY-1 {
				step = max(c.NX-1, 1)
			}
			for x := 0; x < c.NX; x += step {
				owners = dec.AppendOwnersOfRefined(owners[:0], c.Block.ID, x+2*lo[0], y+2*lo[1], z+2*lo[2])
				if len(owners) <= 1 {
					continue // a face on the domain boundary: unrestricted
				}
				key := ownerSet{-1, -1, -1, -1, -1, -1, -1, -1}
				for i, o := range owners {
					key[i] = int32(o)
				}
				id, ok := intern[key]
				if !ok {
					if len(intern) == 255 {
						panic("gradient: more than 255 boundary strata in one block")
					}
					id = uint8(len(intern) + 1)
					intern[key] = id
				}
				f.strata[c.Index(x, y, z)] = id
			}
		}
	}
}

// ownerSet is a set of at most 8 owning block ids (see
// grid.Decomposition.AppendOwnersOfRefined), padded with -1.
type ownerSet [8]int32

// assign runs the greedy pairing sweeps, one per dimension, visiting
// each dimension's cells in SoS order (ranking.appendCells) and picking
// the steepest cofacet by rank (ranking.cofacetKey). The sweeps are
// sequential because each pairing decision depends on earlier ones.
//
// A cell of stratum 0 skips its cofacets' stratum check: a closed block
// box that holds a cofacet also holds the cell, so the cofacet's owners
// are a subset of the cell's, and a cell owned by this block alone has
// only such cofacets. Ranks are compared only once a second candidate
// survives.
//
// Work.SortedItems still bills n_d·⌈log₂ n_d⌉ per swept dimension, the
// comparison sort the paper's construction performs: the cost model
// keeps reproducing the paper's time shapes, and this host-side
// speed-up does not show up as a change of the model.
//
// The ranking and the sweep order live in a blockScratch taken from
// scratchPool and returned once the sweeps end.
func (f *Field) assign() {
	c := f.C
	f.Work.CellsVisited += int64(c.NumCells())
	s := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(s)
	r := newRanking(c, s)
	counts := r.cellCounts()

	const assigned = flagPaired | flagCrit
	state, strata := f.state, f.strata
	ext := [3]int{c.NX, c.NY, c.NZ}
	stride := r.cellStride
	s.order = slices.Grow(s.order[:0], max(counts[0], counts[1], counts[2]))
	order := s.order
	for d := 0; d <= 2; d++ {
		order = r.appendCells(order[:0], d)
		f.Work.SortedItems += int64(counts[d]) * int64(bits.Len(uint(counts[d])))
		for _, ci := range order {
			idx := int(ci)
			if state[idx]&assigned != 0 {
				continue // already a head of a pair from the previous sweep
			}
			x, y, z := c.Coords(idx)
			p := [3]int{x, y, z}
			st := strata[idx]
			best, bestAxis, bestStep, bestKey := -1, 0, 0, int32(-1)
			// The cofacets of idx lie one step along its even axes.
			for a := 0; a < 3; a++ {
				if p[a]&1 == 1 {
					continue
				}
				for s := -1; s <= 1; s += 2 {
					if q := p[a] + s; q < 0 || q >= ext[a] {
						continue
					}
					co := idx + s*stride[a]
					f.Work.PairTests++
					if state[co]&assigned != 0 {
						continue
					}
					if st != 0 && strata[co] != st {
						continue // boundary restriction
					}
					// idx must be the only unassigned facet of co: the
					// facet across co along a, and the two along each odd
					// axis of idx.
					sole := state[co+s*stride[a]]&assigned != 0
					for b := 0; b < 3 && sole; b++ {
						if p[b]&1 == 1 {
							sole = state[co-stride[b]]&assigned != 0 && state[co+stride[b]]&assigned != 0
						}
					}
					if !sole {
						continue
					}
					if best < 0 {
						best, bestAxis, bestStep = co, a, s
						continue
					}
					// Steepest descent: the candidate with the smallest
					// simulation-of-simplicity order.
					if bestKey < 0 {
						bestKey = r.cofacetKey(p, bestAxis, bestStep)
					}
					if key := r.cofacetKey(p, a, s); key < bestKey {
						best, bestAxis, bestStep, bestKey = co, a, s, key
					}
				}
			}
			if best < 0 {
				state[idx] |= flagCrit
				continue
			}
			// The vector idx→best: direction codes are axis*2 + 1 for a
			// step up the axis, so the two ends get opposite low bits.
			state[idx] = flagPaired | flagTail | byte(2*bestAxis+(bestStep+1)/2)
			state[best] = flagPaired | byte(2*bestAxis+(1-bestStep)/2)
		}
	}
	// Whatever remains unassigned can only be 3-cells; they are maxima.
	for z := 1; z < c.NZ; z += 2 {
		for y := 1; y < c.NY; y += 2 {
			for x := 1; x < c.NX; x += 2 {
				if idx := c.Index(x, y, z); state[idx]&assigned == 0 {
					state[idx] |= flagCrit
				}
			}
		}
	}
}

// neighbor returns the cell adjacent to idx in direction code dir.
func (f *Field) neighbor(idx int, dir byte) int { return idx + f.dirStep[dir] }

// IsCritical reports whether a cell is unpaired (a node of the complex).
func (f *Field) IsCritical(idx int) bool { return f.state[idx]&flagCrit != 0 }

// IsPaired reports whether a cell is half of a gradient vector.
func (f *Field) IsPaired(idx int) bool { return f.state[idx]&flagPaired != 0 }

// PairedWith returns the cell paired with idx, if any.
func (f *Field) PairedWith(idx int) (int, bool) {
	if !f.IsPaired(idx) {
		return 0, false
	}
	return f.neighbor(idx, f.state[idx]&dirMask), true
}

// IsHead reports whether idx is the head (higher-dimensional end) of its
// gradient vector.
func (f *Field) IsHead(idx int) bool {
	p, ok := f.PairedWith(idx)
	return ok && f.C.Dim(p) < f.C.Dim(idx)
}

// IsTail reports whether idx is the tail (lower-dimensional end) of its
// gradient vector.
func (f *Field) IsTail(idx int) bool {
	p, ok := f.PairedWith(idx)
	return ok && f.C.Dim(p) > f.C.Dim(idx)
}

// Stratum returns the boundary stratum id of a cell (0 for interior).
func (f *Field) Stratum(idx int) int32 { return int32(f.strata[idx]) }

// StateByte exposes the raw one-byte encoding of a cell's gradient
// state (used by tests that compare shared faces between blocks).
func (f *Field) StateByte(idx int) byte { return f.state[idx] &^ flagTail }

// CriticalCells returns the indices of all critical cells, in index
// order.
func (f *Field) CriticalCells() []int32 {
	var out []int32
	for idx := range f.state {
		if f.state[idx]&flagCrit != 0 {
			out = append(out, int32(idx))
		}
	}
	return out
}

// CriticalCounts returns the number of critical cells of each index.
func (f *Field) CriticalCounts() [4]int {
	var counts [4]int
	for idx := range f.state {
		if f.state[idx]&flagCrit != 0 {
			counts[f.C.Dim(idx)]++
		}
	}
	return counts
}

// Validate checks structural invariants of the field: every paired cell
// points at a cell that points back, pairs span exactly one dimension,
// pairs respect strata, and no cell is both paired and critical. It
// also verifies acyclicity by walking every V-path and failing if any
// walk exceeds the cell count. It returns the first violation found.
func (f *Field) Validate() error {
	c := f.C
	n := c.NumCells()
	for idx := 0; idx < n; idx++ {
		s := f.state[idx]
		if s&flagPaired != 0 && s&flagCrit != 0 {
			return fmt.Errorf("cell %d both paired and critical", idx)
		}
		if s&flagPaired != 0 {
			p := f.neighbor(idx, s&dirMask)
			if p < 0 || p >= n {
				return fmt.Errorf("cell %d paired out of range", idx)
			}
			if !f.IsPaired(p) {
				return fmt.Errorf("cell %d paired with unpaired cell %d", idx, p)
			}
			if back := f.neighbor(p, f.state[p]&dirMask); back != idx {
				return fmt.Errorf("pairing of %d and %d not mutual", idx, p)
			}
			if dd := c.Dim(p) - c.Dim(idx); dd != 1 && dd != -1 {
				return fmt.Errorf("pair %d(%d-cell)–%d(%d-cell) does not span one dimension",
					idx, c.Dim(idx), p, c.Dim(p))
			}
			if f.strata[idx] != f.strata[p] {
				return fmt.Errorf("pair %d–%d crosses strata %d–%d", idx, p, f.strata[idx], f.strata[p])
			}
		}
	}
	// Acyclicity: follow the deterministic descending V-path from the
	// tail of every vector in the (0,1) layer and the single-successor
	// walks in higher layers via bounded traversal from criticals.
	limit := n + 1
	for idx := 0; idx < n; idx++ {
		if c.Dim(idx) != 0 || !f.IsTail(idx) {
			continue
		}
		steps := 0
		v := idx
		for {
			e, ok := f.PairedWith(v)
			if !ok || c.Dim(e) != 1 {
				break
			}
			// Move to the other endpoint of e.
			var fb [6]int
			fc := c.Facets(e, fb[:0])
			if fc[0] == v {
				v = fc[1]
			} else {
				v = fc[0]
			}
			if f.IsCritical(v) {
				break
			}
			steps++
			if steps > limit {
				return fmt.Errorf("cycle detected in (0,1) V-path from cell %d", idx)
			}
		}
	}
	return nil
}
