package mscomplex

import (
	"math"
	"slices"
	"sync"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
)

// TraceOptions bounds the V-path enumeration.
type TraceOptions struct {
	// MaxArcsPerPair caps the number of arc records created between one
	// pair of critical cells when many distinct V-paths connect them
	// (braided flow on plateaus); 0 means the default (2). Two records
	// always survive when more than one path exists, which preserves
	// cancellation validity exactly: arcs only ever disappear together
	// with an endpoint, so a pair's multiplicity never decreases while
	// both endpoints live, and "≥ 2" permanently blocks cancellation
	// regardless of the exact count.
	MaxArcsPerPair int
}

// KernelStats describes the path-compression kernel work of one trace:
// how many pointer-jumping sweeps ran over the vertex successor array
// before convergence, and how many pointer writes each sweep made (the
// final entry is always 0 — the sweep that proved convergence).
type KernelStats struct {
	// Workers is the pool width the sweeps and the per-start tracing ran
	// on (1 for the sequential path).
	Workers int
	// Sweeps is the number of synchronous jumping sweeps, including the
	// final zero-write sweep. It depends only on the longest V-path
	// chain in the block — never on the worker count.
	Sweeps int
	// SweepWrites is the per-sweep write histogram, reduced over chunks
	// in chunk-index order so it is byte-identical for every pool width.
	SweepWrites []int64
}

// TraceResult is the traced complex plus diagnostics.
type TraceResult struct {
	Complex *Complex
	// Truncated counts (saddle, saddle) pairs whose arc multiplicity
	// exceeded MaxArcsPerPair and was clamped.
	Truncated int
	// Kernel reports the pointer-jumping sweep statistics.
	Kernel KernelStats
}

// FromField traces the MS complex 1-skeleton of one block from its
// discrete gradient field. All critical cells become nodes; descending
// V-paths are walked from each node, and an arc is added for every
// distinct V-path terminating at a critical cell, with a traversed cell
// list recorded as the arc's geometric embedding. Paths are guaranteed
// to terminate inside the block because boundary gradient arrows are
// restricted.
//
// dec supplies block ownership for node boundary classification; nil
// means the single-block (serial) case.
func FromField(f *gradient.Field, dec *grid.Decomposition, opts TraceOptions) *TraceResult {
	return FromFieldPooled(f, dec, opts, nil)
}

// FromFieldPooled is FromField on an explicit intra-rank worker pool.
//
// The trace runs in three phases. First, iterated path-compression
// (pointer-jumping) sweeps over the flat vertex successor array resolve
// the terminal minimum of every vertex chain at once, converging when a
// sweep makes no writes. Second, every non-minimum critical cell is
// traced independently — saddle→minimum arcs read the precompressed
// terminals and walk their chain only for the recorded geometry, while
// the braided (1,2) and (2,3) layers keep the exact per-start DFS and
// path-counting dynamic program of the sequential tracer. Starts are
// distributed over the pool with per-worker scratch and per-start
// output slots; the scratch is one workspace per worker, taken from a
// sync.Pool and returned after the commit, so it is allocated once per
// worker rather than once per block. Third, the per-start results are
// committed to the complex sequentially in critical-cell order, so node
// ids, arc order, geometry ids and every serialized byte are identical
// for every pool width — a nil pool is the reference sequential path.
//
// Distinct V-paths between the same pair of critical cells are counted
// exactly (saturating) with a linear-time dynamic program over the
// descending reachability DAG, instead of enumerating every path — path
// enumeration is exponential in braided plateau regions. One
// representative geometry (the first-discovery path) is shared by the
// arc records of a multi-path pair.
func FromFieldPooled(f *gradient.Field, dec *grid.Decomposition, opts TraceOptions, pool *kernel.Pool) *TraceResult {
	ws := make([]*workspace, pool.Workers())
	for i := range ws {
		ws[i] = workspaces.Get().(*workspace)
	}
	res := trace(f, dec, opts, pool, ws)
	for _, w := range ws {
		w.f, w.term0 = nil, nil
		workspaces.Put(w)
	}
	return res
}

// workspace is one pool worker's trace scratch: the tracer with its
// per-cell DFS records and its order, stack, reversed-walk and geometry
// buffers, plus the double buffer of the jumping sweeps (used in the
// first worker's workspace only). All of it is garbage once a block's
// trace is committed, so workspaces recycles it across blocks.
type workspace struct {
	tracer
	chains [2][]int32
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// trace is FromFieldPooled on the given workspaces, one per pool worker.
func trace(f *gradient.Field, dec *grid.Decomposition, opts TraceOptions, pool *kernel.Pool, ws []*workspace) *TraceResult {
	c := f.C
	maxArcs := opts.MaxArcsPerPair
	if maxArcs <= 0 {
		maxArcs = 2
	}
	criticals := f.CriticalCells()
	ms := newSized([]int32{int32(c.Block.ID)}, len(criticals))
	res := &TraceResult{Complex: ms}

	var ob []int
	owners := make([]int32, 0, 8)
	for _, ci := range criticals {
		idx := int(ci)
		var kb [8]cube.VertKey
		keys := c.VertKeys(idx, kb[:])
		owners = append(owners[:0], int32(c.Block.ID))
		if dec != nil {
			gx, gy, gz := c.GlobalCoords(idx)
			ob = dec.AppendOwnersOfRefined(ob[:0], c.Block.ID, gx, gy, gz)
			owners = owners[:0]
			for _, o := range ob {
				owners = append(owners, int32(o))
			}
		}
		ms.AddNode(Node{
			Cell:    c.GlobalAddr(idx),
			Index:   uint8(c.Dim(idx)),
			Value:   keys[0].Val,
			MaxVert: keys[0].ID,
		}, owners)
	}

	// Phase 1: pointer-jumping sweeps on the vertex layer.
	term0, stats := compressChains(f, pool, &ws[0].chains)
	res.Kernel = stats
	for _, w := range stats.SweepWrites {
		ms.Work.SweepWrites += w
	}

	// Phase 2: trace every non-minimum critical cell, in parallel over
	// the pool. Workers write only their own outs slots and per-worker
	// tracer scratch; nothing touches ms until the commit phase.
	starts := make([]int32, 0, len(criticals))
	for _, ci := range criticals {
		if c.Dim(int(ci)) != 0 {
			starts = append(starts, ci)
		}
	}
	// Geometry cells stay where the tracer appended them when one tracer
	// traces every start (a width-1 pool): the complex adopts that arena,
	// so it never returns to the pool. A wider pool's workers' arenas are
	// copied into one of exact size at the commit, so they are recycled.
	adopt := len(ws) == 1
	for _, w := range ws {
		w.f, w.maxArcs, w.term0 = f, maxArcs, term0
		w.cells, w.emits = w.cells[:0], w.emits[:0]
	}
	outs := make([]startOut, len(starts))
	pool.Run(len(starts), 1, func(worker, _, lo, hi int) {
		tr := &ws[worker].tracer
		for i := lo; i < hi; i++ {
			start := int(starts[i])
			if c.Dim(start) == 1 {
				outs[i] = tr.traceChain(start)
			} else {
				outs[i] = tr.traceFrom(start)
			}
			outs[i].worker = worker
		}
	})

	// Phase 3: sequential commit in critical-cell order. The first pass
	// resolves every arc's endpoints and counts node degrees, so the
	// second fills arrays and incidence lists allocated at final size.
	emitsOf := func(o *startOut) []emitRec {
		return ws[o.worker].emits[o.emits.off : o.emits.off+o.emits.n]
	}
	nGeoms, nCells := 0, 0
	for i := range outs {
		nGeoms += int(outs[i].emits.n)
		for _, e := range emitsOf(&outs[i]) {
			nCells += int(e.geom.n)
		}
	}
	if adopt {
		ms.cells = ws[0].cells
		ws[0].cells = nil // the complex owns this arena now
	} else {
		ms.cells = make([]grid.Addr, 0, nCells)
	}
	origins := make([]NodeID, len(outs))
	lowers := make([]NodeID, 0, nGeoms)
	deg := make([]int32, len(ms.Nodes))
	nArcs := 0
	for i := range outs {
		origin, ok := ms.NodeAt(c.GlobalAddr(int(starts[i])))
		if !ok {
			panic("mscomplex: tracing from a cell with no node")
		}
		origins[i] = origin
		for _, e := range emitsOf(&outs[i]) {
			lower, ok := ms.NodeAt(c.GlobalAddr(e.terminal))
			if !ok {
				panic("mscomplex: critical terminal with no node")
			}
			lowers = append(lowers, lower)
			deg[origin] += int32(e.records)
			deg[lower] += int32(e.records)
			nArcs += e.records
		}
	}
	carveArcLists(ms.Nodes, deg)
	ms.Geoms = make([]Geom, 0, nGeoms)
	ms.Arcs = make([]Arc, 0, nArcs)
	k := 0
	for i := range outs {
		for _, e := range emitsOf(&outs[i]) {
			geom := GeomID(len(ms.Geoms))
			if adopt {
				ms.Geoms = append(ms.Geoms, Geom{span: e.geom})
			} else {
				src := ws[outs[i].worker].cells
				ms.AddLeafGeom(src[e.geom.off : e.geom.off+e.geom.n])
			}
			for r := 0; r < e.records; r++ {
				ms.AddArc(origins[i], lowers[k], geom)
			}
			k++
		}
		res.Truncated += outs[i].truncated
		ms.Work.PathSteps += outs[i].steps
	}
	return res
}

// sweepGrain is the chunk size of the jumping sweeps; chunk boundaries
// (and therefore the per-chunk write reduction) depend only on the
// vertex count.
const sweepGrain = kernel.DefaultGrain

// compressChains runs synchronous pointer-jumping sweeps over the
// vertex successor array until a sweep makes no writes, and returns the
// fully compressed array: term[v] is the compact id of the critical
// vertex terminating v's descending chain (v itself when v is
// critical). Sweeps are double-buffered — each reads only the previous
// generation — so the result and the per-sweep write counts are
// independent of worker count and chunk schedule, and the sweep total
// is ⌈log₂(longest chain)⌉ + 1. The two generations live in bufs,
// which are resized to the vertex count and kept there for reuse; the
// returned array is one of them.
func compressChains(f *gradient.Field, pool *kernel.Pool, bufs *[2][]int32) ([]int32, KernelStats) {
	succ := f.Succ0()
	nv := len(succ)
	stats := KernelStats{Workers: pool.Workers()}
	for i := range bufs {
		bufs[i] = slices.Grow(bufs[i][:0], nv)[:nv]
	}
	cur, next := bufs[0], bufs[1]
	initChainsKernel(succ, cur, pool)
	writes := make([]int64, kernel.Chunks(nv, sweepGrain))
	for {
		jumpSweepKernel(cur, next, writes, pool)
		var total int64
		for _, w := range writes {
			total += w
		}
		stats.Sweeps++
		stats.SweepWrites = append(stats.SweepWrites, total)
		cur, next = next, cur
		if total == 0 {
			break
		}
	}
	return cur, stats
}

// initChainsKernel seeds the jumping buffer: each vertex points at its
// successor, terminals point at themselves.
func initChainsKernel(succ, cur []int32, pool *kernel.Pool) {
	pool.Run(len(succ), sweepGrain, func(_, _, lo, hi int) {
		for v := lo; v < hi; v++ {
			s := succ[v]
			if s < 0 {
				s = int32(v)
			}
			cur[v] = s
		}
	})
}

// jumpSweepKernel performs one synchronous pointer-jumping sweep:
// next[v] = cur[cur[v]]. It records the number of changed pointers per
// chunk; the caller reduces them in chunk order.
func jumpSweepKernel(cur, next []int32, writes []int64, pool *kernel.Pool) {
	pool.Run(len(cur), sweepGrain, func(_, chunk, lo, hi int) {
		var w int64
		for v := lo; v < hi; v++ {
			t := cur[cur[v]]
			next[v] = t
			if t != cur[v] {
				w++
			}
		}
		writes[chunk] = w
	})
}

// pathCountCap saturates V-path multiplicity counts.
const pathCountCap = 1 << 20

// emitRec is one arc bundle produced by tracing a single start: the
// terminal critical cell, the representative geometry's range of the
// tracer's cell arena, and how many arc records to add.
type emitRec struct {
	terminal int
	geom     span
	records  int
}

// startOut is everything one traced start contributes to the complex,
// in emission order. It is committed sequentially after the parallel
// phase.
type startOut struct {
	emits     span // range of the worker's emit arena
	truncated int
	steps     int64
	worker    int // the pool worker whose tracer holds emits and geometry
}

// tracer holds per-worker scratch for the per-start tracing phase. It
// never touches the complex; it only fills startOut records.
type tracer struct {
	f       *gradient.Field
	maxArcs int
	term0   []int32 // compressed vertex terminals from the jumping sweeps

	// Per-start scratch, one record per cell, validated by an epoch
	// counter so it is cleared in O(1) between starts. The epoch keeps
	// counting across blocks, so marks left by an earlier block read as
	// stale too.
	order   []int32     // reverse-finish (reverse topological) order
	scratch []cellState // indexed by cell
	epoch   int32

	// Scratch reused across starts: the DFS stack and the reversed
	// parent walk of reconstruct.
	stack []frame
	rev   []int32

	// cells is the arena every traced geometry is appended to, grown by
	// at least doubling; emits is the arena of the starts' emitted arc
	// bundles.
	cells []grid.Addr
	emits []emitRec
}

// cellState is one cell's per-start DFS scratch, packed so that
// discovering a cell touches one cache line.
type cellState struct {
	// mark is 2·epoch once the cell is discovered in this epoch and
	// 2·epoch+1 once it is DFS-expanded; every expanded cell was
	// discovered first in the same epoch.
	mark   int32
	parent int32 // first-discovery predecessor tail (-1 = start)
	count  int32 // number of V-paths start → tail, saturating
}

// frame is one DFS stack entry of traceFrom: 32 bytes.
type frame struct {
	cell     int32
	next     [5]int32
	nNext    int32
	expanded bool
}

// maxEpoch is the last epoch whose expanded mark 2·epoch+1 fits an
// int32.
const maxEpoch = math.MaxInt32 / 2

// reset starts a new epoch over scratch sized to the block. Every mark
// in the array is below 2·epoch afterwards: the array is new, or its
// marks are from earlier epochs, or it was cleared because the epoch
// counter reached maxEpoch. The whole capacity is cleared then, since a
// later, larger block reslices into it.
func (t *tracer) reset() {
	n := t.f.C.NumCells()
	switch {
	case cap(t.scratch) < n:
		t.scratch = make([]cellState, n)
		t.epoch = 0
	case t.epoch >= maxEpoch:
		clear(t.scratch[:cap(t.scratch)])
		t.epoch = 0
	}
	t.scratch = t.scratch[:n]
	t.epoch++
	t.order = t.order[:0]
}

func (t *tracer) discover(cell, parent int32) {
	if cs := &t.scratch[cell]; cs.mark < 2*t.epoch {
		*cs = cellState{mark: 2 * t.epoch, parent: parent}
	}
}

// expand marks cell DFS-expanded and reports whether it was not yet.
func (t *tracer) expand(cell int32) bool {
	cs := &t.scratch[cell]
	if cs.mark == 2*t.epoch+1 {
		return false
	}
	cs.mark = 2*t.epoch + 1
	return true
}

// traceChain traces a 1-saddle using the precompressed vertex layer.
// The two descending chains leaving the saddle's endpoint vertices are
// functional (one successor per vertex), so their terminals come
// straight from term0; the chains are walked only to record geometry.
// The emitted records replicate the sequential DFS tracer exactly:
// distinct terminals emit one single-path arc each, in facet order; a
// shared terminal emits one geometry — the first-discovery path, which
// restarts at the second root if the first root's chain runs through it
// — carrying two arc records.
func (t *tracer) traceChain(start int) startOut {
	c := t.f.C
	var fb [6]int
	roots := c.Facets(start, fb[:0])
	r0, r1 := roots[0], roots[1]
	v0, v1 := t.f.VertexID(r0), t.f.VertexID(r1)
	var out startOut
	if t.term0[v0] != t.term0[v1] {
		// Disjoint chains: one arc per root, own geometry.
		geom0, end0 := t.walkChain(start, v0, -1)
		geom1, end1 := t.walkChain(start, v1, -1)
		out.emits = newSpan(len(t.emits), 2)
		t.emits = append(t.emits,
			emitRec{terminal: end0, geom: geom0, records: 1},
			emitRec{terminal: end1, geom: geom1, records: 1})
		out.steps += int64(geom0.n + geom1.n)
		return out
	}
	// Both chains reach the same minimum: exactly two V-paths. The
	// representative geometry restarts at v1 if the walk from v0 passes
	// through it (the sequential tracer discovered roots first, so the
	// parent walk stopped there).
	g, term := t.walkChain(start, v0, v1)
	records := 2
	if records > t.maxArcs {
		records = t.maxArcs
		out.truncated++
	}
	out.emits = newSpan(len(t.emits), 1)
	t.emits = append(t.emits, emitRec{terminal: term, geom: g, records: records})
	out.steps += int64(g.n)
	return out
}

// walkChain walks the descending vertex chain from compact vertex v,
// building the representative geometry for a path that starts at the
// saddle cell start: [saddle, vertex, pairing edge, vertex, ..., final
// vertex]. If restart is a non-negative vertex id and the walk reaches
// it, the geometry restarts there. Returns the geometry's range of the
// cell arena and the terminal vertex's cell index.
func (t *tracer) walkChain(start, v, restart int) (span, int) {
	c := t.f.C
	succ := t.f.Succ0()
	off := len(t.cells)
	t.cells = append(grow(t.cells, 1), c.GlobalAddr(start))
	for {
		if v == restart {
			t.cells = t.cells[:off+1]
		}
		t.cells = grow(t.cells, 2)
		cell := t.f.VertexCell(v)
		t.cells = append(t.cells, c.GlobalAddr(cell))
		if succ[v] < 0 {
			return newSpan(off, len(t.cells)-off), cell
		}
		t.cells = append(t.cells, c.GlobalAddr(int(t.f.HeadOf(cell))))
		v = int(succ[v])
	}
}

// traceFrom computes, for critical cell start of dimension d ≥ 2, the
// exact (saturating) number of descending V-paths to every reachable
// critical (d-1)-cell. These layers are braided DAGs (a tail can have
// several successors through its head's facets), so pointer jumping
// does not apply; the per-start DFS and dynamic program of the
// sequential tracer run unchanged, reading the flat successor array
// instead of per-cell closures.
func (t *tracer) traceFrom(start int) startOut {
	c := t.f.C
	t.reset()

	// Iterative DFS over tail cells to produce a reverse topological
	// order of the reachability DAG (V-fields are acyclic, so finish
	// order is well defined).
	stack := t.stack[:0]
	var fb [6]int
	var rootBuf [6]int32
	nRoots := 0
	for _, r := range c.Facets(start, fb[:0]) {
		rootBuf[nRoots] = int32(r)
		nRoots++
	}
	roots := rootBuf[:nRoots]
	for _, r := range roots {
		t.discover(r, -1)
	}
	for _, r := range roots {
		if !t.expand(r) {
			continue
		}
		stack = append(stack[:0], frame{cell: r})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if !f.expanded {
				f.expanded = true
				// A critical cell is unpaired, so its HeadOf is -1 too.
				if head := t.f.HeadOf(int(f.cell)); head >= 0 {
					for _, nx := range c.Facets(int(head), fb[:0]) {
						if int32(nx) != f.cell {
							f.next[f.nNext] = int32(nx)
							f.nNext++
						}
					}
				}
			}
			if f.nNext == 0 {
				t.order = append(t.order, f.cell)
				stack = stack[:len(stack)-1]
				continue
			}
			f.nNext--
			n := f.next[f.nNext]
			t.discover(n, f.cell)
			if t.expand(n) {
				stack = append(stack, frame{cell: n})
			}
		}
	}
	t.stack = stack
	var out startOut
	out.steps += int64(len(t.order))

	// Forward dynamic program in topological order (reverse of the
	// finish order): path counts from start. Duplicate roots cannot
	// occur (facets are distinct), so each root starts with exactly one
	// path: the direct step from start.
	sc := t.scratch
	for _, r := range roots {
		if sc[r].count < pathCountCap {
			sc[r].count++
		}
	}
	for i := len(t.order) - 1; i >= 0; i-- {
		cell := t.order[i]
		cnt := sc[cell].count
		if cnt == 0 {
			continue
		}
		if head := t.f.HeadOf(int(cell)); head >= 0 {
			for _, nx := range c.Facets(int(head), fb[:0]) {
				if int32(nx) == cell {
					continue
				}
				sc[nx].count = min(sc[nx].count+cnt, pathCountCap)
			}
		}
	}

	// Emit arcs for every reachable critical terminal, in finish order.
	first := len(t.emits)
	for _, cell := range t.order {
		if !t.f.IsCritical(int(cell)) {
			continue
		}
		cnt := int(sc[cell].count)
		if cnt == 0 {
			continue
		}
		geom := t.reconstruct(start, cell, &out)
		records := cnt
		if records > t.maxArcs {
			records = t.maxArcs
			out.truncated++
		}
		t.emits = append(t.emits, emitRec{terminal: int(cell), geom: geom, records: records})
	}
	out.emits = newSpan(first, len(t.emits)-first)
	return out
}

// reconstruct appends to the cell arena the representative geometry for
// the first-discovery path start → terminal: alternating (head, tail)
// cells ending at the terminal, starting at the origin cell.
func (t *tracer) reconstruct(start int, terminal int32, out *startOut) span {
	c := t.f.C
	// Walk parents from terminal back to a root facet.
	rev := t.rev[:0]
	for cell := terminal; cell != -1; cell = t.scratch[cell].parent {
		rev = append(rev, cell)
	}
	t.rev = rev
	off := len(t.cells)
	cells := append(grow(t.cells, 2*len(rev)+1), c.GlobalAddr(start))
	for i := len(rev) - 1; i >= 0; i-- {
		tail := int(rev[i])
		cells = append(cells, c.GlobalAddr(tail))
		if i > 0 {
			// The head through which the path continues from tail.
			if head := t.f.HeadOf(tail); head >= 0 {
				cells = append(cells, c.GlobalAddr(int(head)))
			}
		}
	}
	t.cells = cells
	out.steps += int64(len(cells) - off)
	return newSpan(off, len(cells)-off)
}
