// Package mscomplex implements the 1-skeleton of the discrete
// Morse-Smale complex: nodes at critical cells, arcs along the V-paths
// connecting critical cells of consecutive index, and the geometric
// embedding of every arc. Nodes, arcs and geometry objects are
// constant-size records in flat arrays with lazy deletion, the layout
// the paper adopts from Gyulassy et al. (2010) because it makes
// persistence cancellation cheap.
//
// Variable-length data lives in three arenas that each complex owns:
// the cells of leaf geometries, the part lists of composite geometries
// and the nodes' owner lists. A Geom or a node's owner list is an
// (offset, length) range of one of them, so the records hold no
// pointers. No two complexes ever share an arena: Compact and
// GlueSerialized copy what they keep, and a traced complex adopts its
// tracer's arena only when no other complex can reach it.
//
// A Complex also knows the Region of the domain it covers (the set of
// decomposition block ids), which determines which of its nodes lie on a
// boundary shared with blocks outside the region — those nodes are the
// "handles" used for gluing and are protected from cancellation.
package mscomplex

import (
	"fmt"
	"math"
	"sort"

	"parms/internal/grid"
	"parms/internal/vtime"
)

// NodeID indexes Complex.Nodes.
type NodeID int32

// ArcID indexes Complex.Arcs.
type ArcID int32

// GeomID indexes Complex.Geoms.
type GeomID int32

// Node is a critical cell of the discrete gradient field.
type Node struct {
	// Cell is the global address of the critical cell.
	Cell grid.Addr
	// Index is the Morse index: 0 minimum, 1 and 2 saddles, 3 maximum.
	Index uint8
	// Value is the function value of the cell (max over its vertices).
	Value float32
	// MaxVert is the global id of the cell's maximal vertex, the
	// deterministic tie-breaker.
	MaxVert int64
	// Alive is false once the node has been cancelled.
	Alive bool

	owners span // range of Complex.owners; see Complex.Owners
	arcs   []ArcID
}

// Arc is a V-path between critical cells whose indices differ by one.
type Arc struct {
	// Upper is the endpoint of higher Morse index, Lower the endpoint
	// of lower index (Upper.Index == Lower.Index+1).
	Upper, Lower NodeID
	// Geom is the arc's geometric embedding.
	Geom GeomID
	// Alive is false once the arc has been removed by a cancellation.
	Alive bool
}

// GeomPart references a child geometry inside a composite, optionally
// traversed in reverse.
type GeomPart struct {
	ID       GeomID
	Reversed bool
}

// Geom is an arc's geometric embedding: either a leaf list of cell
// addresses along the traced V-path, or a composite referencing the
// geometries merged by a cancellation (the paper's scheme for
// inheriting geometry through simplification). It is a range of the
// complex's cell arena (leaf) or of its part arena (composite).
type Geom struct {
	span
	composite bool
}

// span is the range [off, off+n) of one of a complex's arenas.
// Offsets are int32 to keep Node and Geom small; see newSpan.
type span struct{ off, n int32 }

// newSpan returns the span of n elements appended to an arena of length
// off. 2^31 entries is past 8 GiB for the smallest arena element, so
// reaching the limit means the host is already exhausted.
func newSpan(off, n int) span {
	if off+n > math.MaxInt32 {
		panic(fmt.Sprintf("mscomplex: arena of %d entries exceeds int32 offsets", off+n))
	}
	return span{int32(off), int32(n)}
}

// grow returns s with room for n more elements. When it has to
// reallocate it at least doubles the length, so an arena filled by many
// small appends copies each element O(1) times; append alone grows a
// large slice by only 1.25x. Doubling the length rather than the
// capacity keeps slack that a slice already carries (Compact leaves
// Nodes at its old capacity) from being doubled again.
func grow[E any](s []E, n int) []E {
	if n <= cap(s)-len(s) {
		return s
	}
	g := make([]E, len(s), max(2*len(s), len(s)+n))
	copy(g, s)
	return g
}

// Cancellation records one applied persistence cancellation. The list
// of them, in order, is the record of the cancellation hierarchy
// (section III-C); like the paper, a complex keeps only its coarsest
// level, and a coarser one comes from simplifying a copy further.
type Cancellation struct {
	Persistence float32
	UpperCell   grid.Addr
	LowerCell   grid.Addr
	// UpperValue and LowerValue are the function values of the
	// cancelled pair, preserved so persistence diagrams can be
	// reconstructed after the nodes are gone.
	UpperValue  float32
	LowerValue  float32
	ArcsRemoved int
	ArcsCreated int
}

// Complex is the 1-skeleton of a Morse-Smale complex over a region of
// the domain.
type Complex struct {
	Nodes []Node
	Arcs  []Arc
	Geoms []Geom

	// Region lists the decomposition block ids this complex covers,
	// sorted ascending.
	Region []int32
	// Hierarchy records the cancellations applied, in order.
	Hierarchy []Cancellation
	// Work tallies construction and simplification operations for the
	// cost model.
	Work vtime.Work

	// The arenas (package doc): leaf geometry cells, composite
	// geometry parts and node owner lists.
	cells  []grid.Addr
	parts  []GeomPart
	owners []int32

	byCell  map[grid.Addr]NodeID
	geomLen []int64 // memoized GeomLen by geometry id; 0 = unknown
}

// New creates an empty complex covering the given region blocks.
func New(region []int32) *Complex {
	return newSized(region, 0)
}

// newSized is New with room for nodes nodes reserved in Nodes and in
// the cell index, for callers that know their final node count.
func newSized(region []int32, nodes int) *Complex {
	r := append([]int32(nil), region...)
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	return &Complex{
		Region: r,
		Nodes:  make([]Node, 0, nodes),
		byCell: make(map[grid.Addr]NodeID, nodes),
	}
}

// carveArcLists gives every node an empty incidence list with room for
// exactly deg[i] arcs, all carved from one backing array: one
// allocation, and no list holds the slack an append-grown list would.
// Each list's capacity is clipped to its own range, so an append beyond
// deg[i] — from GlueSerialized or Simplify — reallocates that node's
// list alone and never writes into a neighbour's.
func carveArcLists(nodes []Node, deg []int32) {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	backing := make([]ArcID, total)
	off := 0
	for i, d := range deg {
		end := off + int(d)
		nodes[i].arcs = backing[off:off:end]
		off = end
	}
}

// AddNode inserts a node whose cell lies in the closed boxes of the
// given decomposition blocks, sorted ascending, and returns its id. The
// owners are copied into the complex. Inserting a second node at an
// existing cell address panics: node identity is the cell address.
func (c *Complex) AddNode(n Node, owners []int32) NodeID {
	n.owners = newSpan(len(c.owners), len(owners))
	c.owners = append(grow(c.owners, len(owners)), owners...)
	return c.insertNode(n)
}

// insertNode inserts a node whose owner list is already in the arena.
func (c *Complex) insertNode(n Node) NodeID {
	if _, dup := c.byCell[n.Cell]; dup {
		panic(fmt.Sprintf("mscomplex: duplicate node at cell %d", n.Cell))
	}
	n.Alive = true
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, n)
	c.byCell[n.Cell] = id
	return id
}

// Owners returns the decomposition blocks whose closed boxes contain
// node n's cell, sorted ascending. A node is on a shared boundary of a
// region exactly when some owner lies outside the region. The slice is
// the complex's own storage: read it, do not modify it.
func (c *Complex) Owners(n NodeID) []int32 {
	s := c.Nodes[n].owners
	return c.owners[s.off : s.off+s.n : s.off+s.n]
}

// NodeAt returns the node id at a cell address.
func (c *Complex) NodeAt(cell grid.Addr) (NodeID, bool) {
	id, ok := c.byCell[cell]
	return id, ok
}

// AddArc inserts an arc between upper and lower with the given geometry
// and returns its id.
func (c *Complex) AddArc(upper, lower NodeID, geom GeomID) ArcID {
	if c.Nodes[upper].Index != c.Nodes[lower].Index+1 {
		panic(fmt.Sprintf("mscomplex: arc between index %d and %d nodes",
			c.Nodes[upper].Index, c.Nodes[lower].Index))
	}
	id := ArcID(len(c.Arcs))
	c.Arcs = append(c.Arcs, Arc{Upper: upper, Lower: lower, Geom: geom, Alive: true})
	c.Nodes[upper].arcs = append(c.Nodes[upper].arcs, id)
	c.Nodes[lower].arcs = append(c.Nodes[lower].arcs, id)
	c.Work.ArcsTouched++
	return id
}

// AddLeafGeom copies a leaf geometry into the complex and returns its
// id.
func (c *Complex) AddLeafGeom(cells []grid.Addr) GeomID {
	id := GeomID(len(c.Geoms))
	c.Geoms = append(c.Geoms, Geom{span: newSpan(len(c.cells), len(cells))})
	c.cells = append(grow(c.cells, len(cells)), cells...)
	return id
}

// AddCompositeGeom stores the geometry inherited by a cancellation as a
// reference list (the middle part reversed by its Reversed flag),
// exactly as the paper does: "a new geometry object is created that
// references the geometry objects that were merged in the cancellation".
// Shared sub-geometries are stored once; lengths and flattening resolve
// the references on demand. The part list is copied into the complex.
func (c *Complex) AddCompositeGeom(parts []GeomPart) GeomID {
	id := GeomID(len(c.Geoms))
	c.Geoms = append(c.Geoms, Geom{span: newSpan(len(c.parts), len(parts)), composite: true})
	c.parts = append(grow(c.parts, len(parts)), parts...)
	return id
}

// leafCells returns the cells of leaf geometry g.
func (c *Complex) leafCells(g Geom) []grid.Addr { return c.cells[g.off : g.off+g.n] }

// compositeParts returns the part list of composite geometry g.
func (c *Complex) compositeParts(g Geom) []GeomPart { return c.parts[g.off : g.off+g.n] }

// ArcsOf appends the ids of the alive arcs incident to n to buf and
// returns it, pruning dead references from the node's list as it goes.
func (c *Complex) ArcsOf(n NodeID, buf []ArcID) []ArcID {
	return append(buf, c.pruneArcs(n)...)
}

// pruneArcs drops the dead references from node n's incidence list and
// returns the list, which is the complex's own storage.
func (c *Complex) pruneArcs(n NodeID) []ArcID {
	node := &c.Nodes[n]
	kept := node.arcs[:0]
	for _, a := range node.arcs {
		if c.Arcs[a].Alive {
			kept = append(kept, a)
		}
	}
	node.arcs = kept
	return kept
}

// Degree returns the number of alive arcs incident to n, pruning dead
// references from the node's list as ArcsOf does.
func (c *Complex) Degree(n NodeID) int {
	return len(c.pruneArcs(n))
}

// OtherEnd returns the endpoint of arc a that is not n.
func (c *Complex) OtherEnd(a ArcID, n NodeID) NodeID {
	arc := c.Arcs[a]
	if arc.Upper == n {
		return arc.Lower
	}
	return arc.Upper
}

// Multiplicity returns the number of alive arcs connecting u and v,
// pruning dead references from u's list as ArcsOf does.
func (c *Complex) Multiplicity(u, v NodeID) int {
	count := 0
	for _, a := range c.pruneArcs(u) {
		if c.OtherEnd(a, u) == v {
			count++
		}
	}
	return count
}

// AliveCounts returns the number of alive nodes per Morse index and the
// number of alive arcs.
func (c *Complex) AliveCounts() (nodes [4]int, arcs int) {
	for i := range c.Nodes {
		if c.Nodes[i].Alive {
			nodes[c.Nodes[i].Index]++
		}
	}
	for i := range c.Arcs {
		if c.Arcs[i].Alive {
			arcs++
		}
	}
	return
}

// NumAliveNodes returns the total number of alive nodes.
func (c *Complex) NumAliveNodes() int {
	n, _ := c.AliveCounts()
	return n[0] + n[1] + n[2] + n[3]
}

// EulerCharacteristic returns the alternating sum of critical cell
// counts, which discrete Morse theory equates with the Euler
// characteristic of the domain (1 for a solid box).
func (c *Complex) EulerCharacteristic() int {
	n, _ := c.AliveCounts()
	return n[0] - n[1] + n[2] - n[3]
}

// InRegion reports whether block is part of the complex's region.
func (c *Complex) InRegion(block int32) bool {
	i := sort.Search(len(c.Region), func(i int) bool { return c.Region[i] >= block })
	return i < len(c.Region) && c.Region[i] == block
}

// IsBoundaryNode reports whether the node's cell lies on a boundary
// shared with a block outside the complex's region. Such nodes anchor
// future gluing and must not be cancelled.
func (c *Complex) IsBoundaryNode(n NodeID) bool {
	for _, o := range c.Owners(n) {
		if !c.InRegion(o) {
			return true
		}
	}
	return false
}

// GeomLen returns the number of cells in a geometry, resolving
// composites recursively. Results are memoized: composites share
// children heavily after cascaded cancellations, and naive recursion
// would revisit shared subtrees exponentially often.
func (c *Complex) GeomLen(g GeomID) int {
	if int(g) >= len(c.geomLen) {
		grown := make([]int64, len(c.Geoms))
		copy(grown, c.geomLen)
		c.geomLen = grown
	}
	if c.geomLen[g] > 0 {
		return int(c.geomLen[g])
	}
	geom := c.Geoms[g]
	total := 0
	if !geom.composite {
		total = int(geom.n)
	} else {
		for _, p := range c.compositeParts(geom) {
			total += c.GeomLen(p.ID)
		}
	}
	c.geomLen[g] = int64(total)
	return total
}

// FlattenGeom resolves a geometry to its full cell list, in path order.
func (c *Complex) FlattenGeom(g GeomID) []grid.Addr {
	out := make([]grid.Addr, 0, c.GeomLen(g))
	return c.appendGeom(out, g, false)
}

func (c *Complex) appendGeom(out []grid.Addr, g GeomID, reversed bool) []grid.Addr {
	geom := c.Geoms[g]
	if !geom.composite {
		cells := c.leafCells(geom)
		if !reversed {
			return append(out, cells...)
		}
		for i := len(cells) - 1; i >= 0; i-- {
			out = append(out, cells[i])
		}
		return out
	}
	parts := c.compositeParts(geom)
	if reversed {
		for i := len(parts) - 1; i >= 0; i-- {
			out = c.appendGeom(out, parts[i].ID, !parts[i].Reversed)
		}
		return out
	}
	for _, p := range parts {
		out = c.appendGeom(out, p.ID, p.Reversed)
	}
	return out
}

// Validate checks structural invariants: arc endpoints alive and of
// consecutive index, node arc lists consistent with arcs, no duplicate
// node addresses.
func (c *Complex) Validate() error {
	seen := make(map[grid.Addr]bool)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !n.Alive {
			continue
		}
		if seen[n.Cell] {
			return fmt.Errorf("duplicate alive node at cell %d", n.Cell)
		}
		seen[n.Cell] = true
		if n.Index > 3 {
			return fmt.Errorf("node %d has invalid index %d", i, n.Index)
		}
	}
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if !a.Alive {
			continue
		}
		u, l := &c.Nodes[a.Upper], &c.Nodes[a.Lower]
		if !u.Alive || !l.Alive {
			return fmt.Errorf("alive arc %d has dead endpoint", i)
		}
		if u.Index != l.Index+1 {
			return fmt.Errorf("arc %d connects index %d to %d", i, u.Index, l.Index)
		}
	}
	return nil
}

// Persistence returns the persistence of an arc: the absolute function
// value difference of its endpoints.
func (c *Complex) Persistence(a ArcID) float32 {
	arc := &c.Arcs[a]
	p := c.Nodes[arc.Upper].Value - c.Nodes[arc.Lower].Value
	if p < 0 {
		p = -p
	}
	return p
}
