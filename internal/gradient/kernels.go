package gradient

import "parms/internal/kernel"

// This file holds the data-parallel batch kernels of the gradient
// stage. Every kernel is a chunked parallel-for over flat arrays
// (kernel.Pool.Run): writes go only to slots indexed by the loop
// variable, chunk boundaries depend only on the problem size, and the
// per-element loop bodies allocate nothing — TestComputeAllocsBounded
// fails when one does.

// successorsKernel fills the flat vertex successor array from the
// assigned state bytes: succ0[v] is the next vertex along the
// descending V-path chain of vertex v (-1 when v is critical). The
// vertex layer is a functional graph — one successor per vertex — which
// is what makes pointer-jumping sweeps applicable there.
func (f *Field) successorsKernel(pool *kernel.Pool) {
	c := f.C
	f.nvx = (c.NX + 1) / 2
	f.nvy = (c.NY + 1) / 2
	f.nvz = (c.NZ + 1) / 2
	nv := f.nvx * f.nvy * f.nvz
	f.succ0 = make([]int32, nv)
	pool.Run(nv, kernel.DefaultGrain, func(_, _, lo, hi int) {
		for v := lo; v < hi; v++ {
			cell := f.vertexCell(v)
			e := f.HeadOf(cell)
			if e < 0 {
				f.succ0[v] = -1
				continue
			}
			// The edge's other endpoint: edges have exactly two vertex
			// facets at cell ± step, so the one that is not cell sits at
			// the reflection 2e - cell.
			f.succ0[v] = int32(f.vertexID(int(2*e) - cell))
		}
	})
	f.Work.CellsVisited += int64(c.NumCells())
}

// vertexID maps a vertex cell index (all-even refined coordinates) to
// its compact id in the vertex grid.
func (f *Field) vertexID(cellIdx int) int {
	c := f.C
	x := cellIdx % c.NX
	rest := cellIdx / c.NX
	y := rest % c.NY
	z := rest / c.NY
	return ((z/2)*f.nvy+y/2)*f.nvx + x/2
}

// vertexCell maps a compact vertex id back to its refined cell index.
func (f *Field) vertexCell(vid int) int {
	vx := vid % f.nvx
	rest := vid / f.nvx
	vy := rest % f.nvy
	vz := rest / f.nvy
	return ((2*vz)*f.C.NY+2*vy)*f.C.NX + 2*vx
}

// Succ0 exposes the vertex-layer successor array: one int32 per vertex
// of the block, the compact id of the next vertex along its descending
// V-path chain, or -1 at critical vertices. The tracer's pointer-
// jumping sweeps iterate this array.
func (f *Field) Succ0() []int32 { return f.succ0 }

// HeadOf returns the paired head cofacet of a tail cell, or -1 when the
// cell is not the tail of a gradient vector (a head or a critical
// cell). It is the PairedWith + dimension check of the tracing kernels,
// read off the state byte's tail flag and direction code.
func (f *Field) HeadOf(idx int) int32 {
	s := f.state[idx]
	if s&flagTail == 0 {
		return -1
	}
	return int32(idx + f.dirStep[s&dirMask])
}

// VertexCount returns the number of vertices (0-cells) in the block.
func (f *Field) VertexCount() int { return len(f.succ0) }

// VertexID returns the compact vertex id of a vertex cell index.
func (f *Field) VertexID(cellIdx int) int { return f.vertexID(cellIdx) }

// VertexCell returns the refined cell index of a compact vertex id.
func (f *Field) VertexCell(vid int) int { return f.vertexCell(vid) }
