package mscomplex

import (
	"math"
	"slices"
	"sort"
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
func (c *Complex) Glue(other *Complex) {
	c.Nodes = slices.Grow(c.Nodes, len(other.Nodes))
	c.Arcs = slices.Grow(c.Arcs, len(other.Arcs))
	c.Geoms = slices.Grow(c.Geoms, len(other.Geoms))

	// A node of other is "shared" when its cell is also contained in a
	// block of the receiver's region. An arc between two shared nodes
	// is already present in the receiver; every other arc is added, and
	// deg counts the arcs each node of other gains.
	shared := make([]bool, len(other.Nodes))
	for i := range other.Nodes {
		for _, o := range other.Nodes[i].Owners {
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
				Owners:  append([]int32(nil), n.Owners...),
			})
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
	geom := &other.Geoms[g]
	var id GeomID
	if geom.Parts == nil {
		id = c.AddLeafGeom(geom.Cells)
	} else {
		parts := make([]GeomPart, len(geom.Parts))
		for i, p := range geom.Parts {
			parts[i] = GeomPart{ID: c.importGeom(other, p.ID, memo), Reversed: p.Reversed}
		}
		id = c.AddCompositeGeom(parts)
	}
	memo[g] = id
	return id
}

// unseenGeoms returns a geometry memo of n entries, all -1.
func unseenGeoms(n int) []GeomID {
	memo := make([]GeomID, n)
	for i := range memo {
		memo[i] = -1
	}
	return memo
}

// Compact rebuilds the complex keeping only alive nodes and arcs and the
// geometry objects they reference (shared children once), releasing the
// memory of cancelled elements — the paper's cleanup step that drops all
// but the coarsest level of the hierarchy before communication. The
// hierarchy record is preserved. The result is built at its final size:
// one walk counts and numbers what survives, then every array is
// allocated once and filled, composite part lists and node incidence
// lists each carved from one backing array. Leaf geometries and node
// owner lists are shared with the receiver, not copied.
func (c *Complex) Compact() *Complex {
	l := c.layout()
	out := newSized(c.Region, l.nodes)
	out.Hierarchy = c.Hierarchy
	out.Work = c.Work
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !n.Alive {
			continue
		}
		out.AddNode(Node{
			Cell:    n.Cell,
			Index:   n.Index,
			Value:   n.Value,
			MaxVert: n.MaxVert,
			Owners:  n.Owners,
		})
	}
	out.Geoms = make([]Geom, 0, len(l.geomOrder))
	parts := make([]GeomPart, l.parts)
	for _, g := range l.geomOrder {
		geom := &c.Geoms[g]
		if geom.Parts == nil {
			out.AddLeafGeom(geom.Cells)
			continue
		}
		n := len(geom.Parts)
		own := parts[:n:n]
		parts = parts[n:]
		for i, p := range geom.Parts {
			own[i] = GeomPart{ID: l.geomSlot[p.ID], Reversed: p.Reversed}
		}
		out.AddCompositeGeom(own)
	}
	deg := make([]int32, l.nodes)
	for i := range c.Arcs {
		if a := &c.Arcs[i]; a.Alive {
			deg[l.nodeSlot[a.Upper]]++
			deg[l.nodeSlot[a.Lower]]++
		}
	}
	carveArcLists(out.Nodes, deg)
	out.Arcs = make([]Arc, 0, l.arcs)
	for i := range c.Arcs {
		if a := &c.Arcs[i]; a.Alive {
			out.AddArc(l.nodeSlot[a.Upper], l.nodeSlot[a.Lower], l.geomSlot[a.Geom])
		}
	}
	return out
}
