package mscomplex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"parms/internal/grid"
)

// Glue glues other onto the receiver (section IV-F3) through other's
// payload, so it is exactly GlueSerialized; other bills the Serialize.
func (c *Complex) Glue(other *Complex) {
	if err := c.GlueSerialized(other.Serialize()); err != nil {
		panic(fmt.Sprintf("mscomplex: gluing an in-memory complex: %v", err))
	}
}

// GlueSerialized glues the complex serialized in data onto the receiver
// (section IV-F3), copying nodes, owners, geometry and arcs straight
// from the payload into the receiver's arrays and arenas; it is the
// package's one decoder. The discrete gradients of the two regions are
// identical on their shared boundary, so every critical cell on that
// boundary is a node of both complexes; these shared nodes anchor the
// gluing:
//
//   - every node of the payload not already present (by cell address)
//     is added;
//   - every arc is added unless both of its endpoints lie on the
//     boundary shared with the receiver's region, in which case the
//     arc exists in the receiver already, as does the geometry only
//     such arcs reference;
//   - the receiver's region becomes the union of the two regions, so
//     nodes interior to the union become candidates for cancellation.
//
// A read-only pass validates the whole payload first, so a rejected
// payload leaves the receiver untouched. The arrays the receiver extends
// grow geometrically; it bills NodesGlued and ArcsTouched.
func (c *Complex) GlueSerialized(data []byte) error {
	s := glueScratchPool.Get().(*glueScratch)
	defer glueScratchPool.Put(s)
	p, err := c.scanPayload(data, s)
	if err == nil {
		c.gluePayload(data, p, s)
	}
	return err
}

// glueScratch holds GlueSerialized's tables, indexed by payload slot.
type glueScratch struct {
	nodes []slotNode
	geoms []slotGeom
	cells []grid.Addr // the payload's node cells, sorted to find duplicates
}

var glueScratchPool = sync.Pool{New: func() any { return new(glueScratch) }}

type slotNode struct {
	id     NodeID // receiver id; -1 for a node not yet in the receiver
	index  uint8  // Morse index, the receiver's for a node it has
	shared bool   // an owner lies in the receiver's region
	deg    int32  // arcs the node gains
}

type slotGeom struct {
	off int32  // payload offset of the record
	id  GeomID // receiver id once copied; -1 = not needed
}

// gluePlan is where the arc section starts and how much each array grows.
type gluePlan struct {
	arcs, newNodes, lists, arcsKept int
	owners, geoms, cells, parts     int
}

// scanPayload checks every count against the bytes left, node indices,
// duplicate cells, arc endpoints and indices, forward geometry references
// and matches with cancelled nodes, without changing the receiver.
func (c *Complex) scanPayload(data []byte, s *glueScratch) (gluePlan, error) {
	var p gluePlan
	r := reader{buf: data}
	if len(data) > math.MaxInt32 {
		return p, fmt.Errorf("mscomplex: payload of %d bytes exceeds int32 offsets", len(data))
	}
	if r.u32() != serialMagic {
		return p, fmt.Errorf("mscomplex: bad magic")
	}
	nRegion := int(r.u32())
	if !r.fits(nRegion, 4) {
		return p, fmt.Errorf("mscomplex: region count %d exceeds payload", nRegion)
	}
	r.skip(4 * nRegion)
	nNodes := int(r.u32())
	if !r.fits(nNodes, 8+1+4+8+2) {
		return p, fmt.Errorf("mscomplex: node count %d exceeds payload", nNodes)
	}
	s.nodes = slices.Grow(s.nodes[:0], nNodes)
	s.cells = slices.Grow(s.cells[:0], nNodes)
	for i := 0; i < nNodes && r.err == nil; i++ {
		cell := grid.Addr(r.u64())
		n := slotNode{id: -1, index: r.u8()}
		r.skip(4 + 8)
		k := int(r.u16())
		if !r.fits(k, 4) {
			return p, fmt.Errorf("mscomplex: owner count %d exceeds payload", k)
		}
		for j := 0; j < k; j++ {
			n.shared = c.InRegion(int32(r.u32())) || n.shared
		}
		if n.index > 3 {
			return p, fmt.Errorf("mscomplex: node %d has index %d", i, n.index)
		}
		if id, ok := c.byCell[cell]; !ok {
			p.newNodes++
			p.owners += k
		} else if !c.Nodes[id].Alive {
			return p, fmt.Errorf("mscomplex: node at cell %d matches a cancelled node", cell)
		} else {
			n.id, n.index = id, c.Nodes[id].Index
		}
		s.nodes = append(s.nodes, n)
		s.cells = append(s.cells, cell)
	}
	if slices.Sort(s.cells); len(slices.Compact(s.cells)) < len(s.nodes) {
		return p, fmt.Errorf("mscomplex: payload repeats a node cell")
	}

	nGeoms := int(r.u32())
	if !r.fits(nGeoms, 1+2) {
		return p, fmt.Errorf("mscomplex: geometry count %d exceeds payload", nGeoms)
	}
	s.geoms = slices.Grow(s.geoms[:0], nGeoms)
	for i := 0; i < nGeoms && r.err == nil; i++ {
		s.geoms = append(s.geoms, slotGeom{off: int32(r.off), id: -1})
		switch kind := r.u8(); kind {
		case 0:
			k := int(r.u32())
			if !r.fits(k, 8) {
				return p, fmt.Errorf("mscomplex: geometry cell count %d exceeds payload", k)
			}
			r.skip(8 * k)
		case 1:
			k := int(r.u16())
			if !r.fits(k, 5) {
				return p, fmt.Errorf("mscomplex: geometry part count %d exceeds payload", k)
			}
			for j := r.off; j < r.off+5*k; j += 5 {
				if slot := int(binary.LittleEndian.Uint32(data[j:])); slot >= i {
					return p, fmt.Errorf("mscomplex: geometry %d references later object %d", i, slot)
				}
			}
			r.skip(5 * k)
		default:
			return p, fmt.Errorf("mscomplex: unknown geometry kind %d", kind)
		}
	}

	p.arcs = r.off
	nArcs := int(r.u32())
	if !r.fits(nArcs, 12) {
		return p, fmt.Errorf("mscomplex: arc count %d exceeds payload", nArcs)
	}
	for i := 0; i < nArcs; i++ {
		upper, lower, g := int(r.u32()), int(r.u32()), int(r.u32())
		if upper >= nNodes || lower >= nNodes {
			return p, fmt.Errorf("mscomplex: arc %d references node out of range", i)
		}
		if g >= nGeoms {
			return p, fmt.Errorf("mscomplex: arc %d references geometry out of range", i)
		}
		u, l := &s.nodes[upper], &s.nodes[lower]
		if u.index != l.index+1 {
			return p, fmt.Errorf("mscomplex: arc %d connects index %d to %d", i, u.index, l.index)
		}
		if !(u.shared && l.shared) {
			u.deg++
			l.deg++
			s.geoms[g].id = 0
			p.arcsKept++
		}
	}
	nHier := int(r.u32())
	if !r.fits(nHier, 36) {
		return p, fmt.Errorf("mscomplex: hierarchy count %d exceeds payload", nHier)
	}
	if r.skip(36 * nHier); r.err != nil {
		return p, r.err
	}

	// Copy only the geometry the kept arcs reach: children precede their
	// parents, so one backward pass marks every child of a needed parent.
	for i := len(s.geoms) - 1; i >= 0; i-- {
		if s.geoms[i].id < 0 {
			continue
		}
		p.geoms++
		r.off = int(s.geoms[i].off)
		if r.u8() == 0 {
			p.cells += int(r.u32())
			continue
		}
		k := int(r.u16())
		p.parts += k
		for j := r.off; j < r.off+5*k; j += 5 {
			s.geoms[binary.LittleEndian.Uint32(data[j:])].id = 0
		}
	}
	for _, n := range s.nodes {
		if n.id < 0 {
			p.lists += int(n.deg)
		} else if a := c.Nodes[n.id].arcs; len(a)+int(n.deg) > cap(a) {
			p.lists += len(a) + int(n.deg)
		}
	}
	if n := max(len(c.owners)+p.owners, len(c.cells)+p.cells, len(c.parts)+p.parts); n > math.MaxInt32 {
		return p, fmt.Errorf("mscomplex: arena of %d entries exceeds int32 offsets", n)
	}
	return p, nil
}

// gluePayload glues the payload scanPayload accepted, following its plan.
func (c *Complex) gluePayload(data []byte, p gluePlan, s *glueScratch) {
	c.Nodes = grow(c.Nodes, p.newNodes)
	c.Arcs = grow(c.Arcs, p.arcsKept)
	c.Geoms = grow(c.Geoms, p.geoms)
	c.cells = grow(c.cells, p.cells)
	c.parts = grow(c.parts, p.parts)
	c.owners = grow(c.owners, p.owners)
	if c.byCell == nil {
		c.byCell = make(map[grid.Addr]NodeID, p.newNodes)
	}

	r := reader{buf: data, off: 4} // past the magic
	n := int(r.u32())
	region := append(make([]int32, 0, len(c.Region)+n), c.Region...)
	for range n {
		region = append(region, int32(r.u32()))
	}
	slices.Sort(region)
	c.Region = slices.Compact(region)

	// New nodes' incidence lists, and existing ones too short for the
	// arcs they gain, are carved from one array, as carveArcLists does.
	lists := make([]ArcID, p.lists)
	r.u32() // the node count
	for i := range s.nodes {
		sn := &s.nodes[i]
		n := Node{Cell: grid.Addr(r.u64()), Index: r.u8(), Value: r.f32(), MaxVert: int64(r.u64())}
		k := int(r.u16())
		if sn.id >= 0 {
			r.skip(4 * k)
			if a := c.Nodes[sn.id].arcs; len(a)+int(sn.deg) > cap(a) {
				m := len(a) + int(sn.deg)
				c.Nodes[sn.id].arcs, lists = append(lists[:0:m], a...), lists[m:]
			}
			continue
		}
		n.owners = newSpan(len(c.owners), k)
		for j := 0; j < k; j++ {
			c.owners = append(c.owners, int32(r.u32()))
		}
		n.arcs, lists = lists[:0:sn.deg], lists[sn.deg:]
		sn.id = c.insertNode(n)
	}
	c.Work.NodesGlued += int64(len(s.nodes))

	for i := range s.geoms {
		g := &s.geoms[i]
		if g.id < 0 {
			continue
		}
		g.id = GeomID(len(c.Geoms))
		r.off = int(g.off)
		if r.u8() == 0 {
			k := int(r.u32())
			c.Geoms = append(c.Geoms, Geom{span: newSpan(len(c.cells), k)})
			for j := r.off; j < r.off+8*k; j += 8 {
				c.cells = append(c.cells, grid.Addr(binary.LittleEndian.Uint64(data[j:])))
			}
			continue
		}
		k := int(r.u16())
		c.Geoms = append(c.Geoms, Geom{span: newSpan(len(c.parts), k), composite: true})
		for j := r.off; j < r.off+5*k; j += 5 {
			slot := binary.LittleEndian.Uint32(data[j:])
			c.parts = append(c.parts, GeomPart{ID: s.geoms[slot].id, Reversed: data[j+4] == 1})
		}
	}

	r.off = p.arcs
	for range r.u32() {
		u, l, g := &s.nodes[r.u32()], &s.nodes[r.u32()], r.u32()
		if !(u.shared && l.shared) {
			c.AddArc(u.id, l.id, s.geoms[g].id)
		}
	}
	n = int(r.u32())
	c.Hierarchy = slices.Grow(c.Hierarchy, n)
	for range n {
		c.Hierarchy = append(c.Hierarchy, Cancellation{
			Persistence: r.f32(),
			UpperCell:   grid.Addr(r.u64()),
			LowerCell:   grid.Addr(r.u64()),
			UpperValue:  r.f32(),
			LowerValue:  r.f32(),
			ArcsRemoved: int(r.u32()),
			ArcsCreated: int(r.u32()),
		})
	}
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
// reachable; node incidence lists are carved again from one array at
// exact size rather than pruned where they stand, so the compacted
// complex holds no list's dead slack while it waits to be sent. The
// hierarchy record is preserved.
func (c *Complex) Compact() *Complex {
	l := c.layout()
	defer layoutPool.Put(l)
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
			c.AddCompositeGeom(parts[geom.off : geom.off+geom.n])
			for i := len(c.parts) - int(geom.n); i < len(c.parts); i++ {
				c.parts[i].ID = l.geomSlot[c.parts[i].ID]
			}
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
	c.geomLen = nil
	return c
}
