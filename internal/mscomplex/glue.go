package mscomplex

import (
	"math"
	"slices"
	"sort"

	"parms/internal/grid"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Glue enlarges the receiver by gluing other onto it (section IV-F3).
// The discrete gradients of the two regions are identical on their
// shared boundary, so every critical cell on that boundary is a node of
// both complexes; these shared nodes anchor the gluing:
//
//   - every node of other that is not already present (by cell address)
//     is added;
//   - every arc of other is added unless both of its endpoints lie on
//     the boundary shared with the receiver's region, in which case the
//     arc is guaranteed to exist in the receiver already;
//   - the receiver's region becomes the union of the two regions, which
//     reclassifies boundary status: nodes interior to the union become
//     candidates for cancellation in the next simplification.
//
// Every array the receiver extends grows at least geometrically, so a
// root that glues many members in turn copies its own arrays O(1) times
// per element, not once per member. The member's geometry and owner
// lists are copied into the receiver's arenas.
func (c *Complex) Glue(other *Complex) {
	c.Nodes = grow(c.Nodes, len(other.Nodes))
	c.Arcs = grow(c.Arcs, len(other.Arcs))
	c.Geoms = grow(c.Geoms, len(other.Geoms))
	c.cells = grow(c.cells, len(other.cells))
	c.parts = grow(c.parts, len(other.parts))
	c.owners = grow(c.owners, len(other.owners))

	// A node of other is "shared" when its cell is also contained in a
	// block of the receiver's region. An arc between two shared nodes
	// is already present in the receiver; every other arc is added, and
	// deg counts the arcs each node of other gains.
	shared := make([]bool, len(other.Nodes))
	for i := range other.Nodes {
		for _, o := range other.Owners(NodeID(i)) {
			if c.InRegion(o) {
				shared[i] = true
				break
			}
		}
	}
	deg := make([]int32, len(other.Nodes))
	for i := range other.Arcs {
		if a := &other.Arcs[i]; a.Alive && !(shared[a.Upper] && shared[a.Lower]) {
			deg[a.Upper]++
			deg[a.Lower]++
		}
	}

	firstNew := len(c.Nodes)
	remap := make([]NodeID, len(other.Nodes))
	for i := range other.Nodes {
		n := &other.Nodes[i]
		if !n.Alive {
			continue
		}
		if id, ok := c.byCell[n.Cell]; ok {
			remap[i] = id
		} else {
			remap[i] = c.AddNode(Node{
				Cell:    n.Cell,
				Index:   n.Index,
				Value:   n.Value,
				MaxVert: n.MaxVert,
			}, other.Owners(NodeID(i)))
		}
		c.Work.NodesGlued++
	}
	// Room for the incoming arcs: new nodes' lists are carved from one
	// array, existing nodes' lists grow once.
	newDeg := make([]int32, len(c.Nodes)-firstNew)
	for i := range other.Nodes {
		if !other.Nodes[i].Alive || deg[i] == 0 {
			continue
		}
		if id := int(remap[i]); id >= firstNew {
			newDeg[id-firstNew] = deg[i]
		} else {
			c.Nodes[id].arcs = slices.Grow(c.Nodes[id].arcs, int(deg[i]))
		}
	}
	carveArcLists(c.Nodes[firstNew:], newDeg)

	geomMemo := unseenGeoms(len(other.Geoms))
	for i := range other.Arcs {
		a := &other.Arcs[i]
		if !a.Alive || shared[a.Upper] && shared[a.Lower] {
			continue
		}
		geom := c.importGeom(other, a.Geom, geomMemo)
		c.AddArc(remap[a.Upper], remap[a.Lower], geom)
	}

	// Union the regions.
	merged := append(append([]int32(nil), c.Region...), other.Region...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	out := merged[:0]
	var last int32 = -1
	for _, b := range merged {
		if b != last {
			out = append(out, b)
			last = b
		}
	}
	c.Region = out
	c.Hierarchy = append(c.Hierarchy, other.Hierarchy...)
	// Note: other.Work is NOT folded in — it tallies operations already
	// performed (and already charged to a clock) on the rank that
	// computed the incoming complex. Only the gluing operations
	// themselves (node insertions, arc additions) accrue here.
}

// importGeom deep-copies a geometry DAG from another complex,
// preserving sharing: a child referenced by several composites is
// imported once. memo maps other's geometry ids to the receiver's, -1
// for not yet imported.
func (c *Complex) importGeom(other *Complex, g GeomID, memo []GeomID) GeomID {
	if id := memo[g]; id >= 0 {
		return id
	}
	geom := other.Geoms[g]
	var id GeomID
	if !geom.composite {
		id = c.AddLeafGeom(other.leafCells(geom))
	} else {
		parts := other.compositeParts(geom)
		for _, p := range parts {
			c.importGeom(other, p.ID, memo)
		}
		id = c.addRemappedComposite(parts, memo)
	}
	memo[g] = id
	return id
}

// addRemappedComposite adds a composite whose parts are parts with
// every child id mapped through slot.
func (c *Complex) addRemappedComposite(parts []GeomPart, slot []GeomID) GeomID {
	var buf [3]GeomPart // every composite Simplify builds has three parts
	own := buf[:0]
	for _, p := range parts {
		own = append(own, GeomPart{ID: slot[p.ID], Reversed: p.Reversed})
	}
	return c.AddCompositeGeom(own)
}

// unseenGeoms returns a geometry memo of n entries, all -1.
func unseenGeoms(n int) []GeomID {
	memo := make([]GeomID, n)
	for i := range memo {
		memo[i] = -1
	}
	return memo
}

// Compact drops the cancelled nodes and arcs and the geometry objects
// no alive arc references (shared children kept once), releasing the
// memory of cancelled elements — the paper's cleanup step that drops
// all but the coarsest level of the hierarchy before communication —
// and returns the receiver. It works in place: the alive nodes and arcs
// slide down in id order, and the cell index forgets the dead cells and
// renumbers the live ones. When fewer than a quarter of the node
// array's slots survive, the node array and the cell index are built
// anew at exact size instead: copying the few survivors costs little,
// and the large array is freed rather than held by a complex that may
// wait a merge round to be sent. The cell, part and owner arenas and
// the geometry records are copied at exact size, keeping only what is
// reachable; node incidence lists are carved again from one array, in
// arc order, since Refine leaves them out of order and list order
// decides the order in which Simplify creates arcs. The hierarchy
// record is preserved, but the undo history is dropped: the compacted
// complex cannot be refined.
func (c *Complex) Compact() *Complex {
	l := c.layout()
	owners := make([]int32, 0, l.owners)
	nodes := c.Nodes[:0]
	shrink := 4*l.nodes < cap(c.Nodes)
	if shrink {
		nodes = make([]Node, 0, l.nodes)
		c.byCell = make(map[grid.Addr]NodeID, l.nodes)
	}
	for i := range c.Nodes {
		n := c.Nodes[i]
		if !n.Alive {
			if !shrink {
				delete(c.byCell, n.Cell)
			}
			continue
		}
		c.byCell[n.Cell] = NodeID(len(nodes))
		nodes = append(nodes, Node{
			Cell:    n.Cell,
			Index:   n.Index,
			Value:   n.Value,
			MaxVert: n.MaxVert,
			Alive:   true,
			owners:  newSpan(len(owners), int(n.owners.n)),
		})
		owners = append(owners, c.owners[n.owners.off:n.owners.off+n.owners.n]...)
	}
	if !shrink {
		clear(c.Nodes[l.nodes:]) // let the old incidence lists go
	}
	c.Nodes = nodes
	c.owners = owners

	geoms, cells, parts := c.Geoms, c.cells, c.parts
	c.Geoms = make([]Geom, 0, len(l.geomOrder))
	c.cells = make([]grid.Addr, 0, l.cells)
	c.parts = make([]GeomPart, 0, l.parts)
	for _, g := range l.geomOrder {
		geom := geoms[g]
		if geom.composite {
			c.addRemappedComposite(parts[geom.off:geom.off+geom.n], l.geomSlot)
		} else {
			c.AddLeafGeom(cells[geom.off : geom.off+geom.n])
		}
	}

	deg := make([]int32, l.nodes)
	arcs := c.Arcs[:0]
	for _, a := range c.Arcs {
		if a.Alive {
			a.Upper, a.Lower, a.Geom = l.nodeSlot[a.Upper], l.nodeSlot[a.Lower], l.geomSlot[a.Geom]
			arcs = append(arcs, a)
			deg[a.Upper]++
			deg[a.Lower]++
		}
	}
	c.Arcs = arcs
	carveArcLists(c.Nodes, deg)
	for i, a := range c.Arcs {
		c.Nodes[a.Upper].arcs = append(c.Nodes[a.Upper].arcs, ArcID(i))
		c.Nodes[a.Lower].arcs = append(c.Nodes[a.Lower].arcs, ArcID(i))
	}
	c.Work.ArcsTouched += int64(len(c.Arcs))
	c.undo, c.applied, c.geomLen = nil, 0, nil
	return c
}
