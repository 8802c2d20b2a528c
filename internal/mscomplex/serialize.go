package mscomplex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"parms/internal/grid"
)

// Serialization format (little-endian):
//
//	magic   u32 "MSC2"
//	region  u32 count, then u32 block ids
//	nodes   u32 count, then per node:
//	          cell u64, index u8, value f32(bits), maxVert i64,
//	          owners u16 count + u32 ids
//	geoms   u32 count, then per geometry object (children precede
//	        parents):
//	          kind u8 (0 = leaf, 1 = composite)
//	          leaf:      u32 cell count + u64 addresses
//	          composite: u16 part count + per part u32 id, u8 reversed
//	arcs    u32 count, then per arc:
//	          upper u32, lower u32 (node slots), geom u32 (geom slot)
//	hierarchy u32 count, then per cancellation:
//	          persistence f32, upper cell u64, lower cell u64,
//	          upper value f32, lower value f32,
//	          arcs removed u32, arcs created u32
//
// Only alive nodes, alive arcs and the geometry objects they reference
// are written. Geometry objects shared by several arcs (the references
// created by cancellations, section IV-E) are stored exactly once — the
// sharing is what keeps output sizes near the paper's, rather than the
// exponentially larger flattened walks. The cancellation hierarchy
// travels with the complex so the multi-resolution persistence curve
// survives merging and storage.
const serialMagic = 0x3243534d // "MSC2"

// layout is the alive part of a complex as Serialize and Compact lay it
// out: alive nodes and arcs in id order, and the geometry objects
// reachable from alive arcs numbered children first, shared children
// once, so a reader resolves every reference in one pass.
type layout struct {
	nodeSlot  []NodeID // new id of each node; -1 = dead
	geomSlot  []GeomID // new id of each geometry; -1 = unreachable
	geomOrder []GeomID // reachable geometries by new id
	nodes     int
	arcs      int
	owners    int // owners of the alive nodes
	cells     int // cells of the reachable leaves
	parts     int // parts of the reachable composites
	// size is the exact number of bytes Serialize emits.
	size int64
}

// layout walks the complex once, assigning node and geometry slots and
// summing the payload size.
func (c *Complex) layout() *layout {
	// One array holds both geometry tables: at most every geometry is
	// reachable.
	geoms := make([]GeomID, 2*len(c.Geoms))
	l := &layout{
		nodeSlot:  make([]NodeID, len(c.Nodes)),
		geomSlot:  geoms[:len(c.Geoms)],
		geomOrder: geoms[len(c.Geoms):len(c.Geoms)],
	}
	l.size = 4 + 4 + 4*int64(len(c.Region)) + 4
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !n.Alive {
			l.nodeSlot[i] = -1
			continue
		}
		l.nodeSlot[i] = NodeID(l.nodes)
		l.nodes++
		l.owners += int(n.owners.n)
		l.size += 8 + 1 + 4 + 8 + 2 + 4*int64(n.owners.n)
	}
	for i := range l.geomSlot {
		l.geomSlot[i] = -1
	}
	l.size += 4 // geometry count
	for i := range c.Arcs {
		if c.Arcs[i].Alive {
			l.arcs++
			l.visit(c, c.Arcs[i].Geom)
		}
	}
	l.size += 4 + 12*int64(l.arcs)
	l.size += 4 + 36*int64(len(c.Hierarchy))
	return l
}

// visit numbers geometry g after its children.
func (l *layout) visit(c *Complex, g GeomID) {
	if l.geomSlot[g] >= 0 {
		return
	}
	geom := c.Geoms[g]
	if !geom.composite {
		l.cells += int(geom.n)
		l.size += 1 + 4 + 8*int64(geom.n)
	} else {
		for _, p := range c.compositeParts(geom) {
			l.visit(c, p.ID)
		}
		l.parts += int(geom.n)
		l.size += 1 + 2 + 5*int64(geom.n)
	}
	l.geomSlot[g] = GeomID(len(l.geomOrder))
	l.geomOrder = append(l.geomOrder, g)
}

// Serialize encodes the alive part of the complex for communication or
// storage and returns the byte payload.
func (c *Complex) Serialize() []byte { return c.AppendSerialized(nil) }

// AppendSerialized appends the payload Serialize returns to dst and
// returns the extended slice. It grows dst once, by the payload's exact
// size, so a caller that reserves a header in dst gets header and
// payload in one allocation.
func (c *Complex) AppendSerialized(dst []byte) []byte {
	l := c.layout()
	w := writer{buf: slices.Grow(dst, int(l.size))}
	w.u32(serialMagic)
	w.u32(uint32(len(c.Region)))
	for _, b := range c.Region {
		w.u32(uint32(b))
	}
	w.u32(uint32(l.nodes))
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !n.Alive {
			continue
		}
		w.u64(uint64(n.Cell))
		w.u8(n.Index)
		w.f32(n.Value)
		w.u64(uint64(n.MaxVert))
		owners := c.Owners(NodeID(i))
		w.u16(uint16(len(owners)))
		for _, o := range owners {
			w.u32(uint32(o))
		}
	}

	w.u32(uint32(len(l.geomOrder)))
	for _, g := range l.geomOrder {
		geom := c.Geoms[g]
		if !geom.composite {
			cells := c.leafCells(geom)
			w.u8(0)
			w.u32(uint32(len(cells)))
			for _, cell := range cells {
				w.u64(uint64(cell))
			}
		} else {
			parts := c.compositeParts(geom)
			w.u8(1)
			w.u16(uint16(len(parts)))
			for _, p := range parts {
				w.u32(uint32(l.geomSlot[p.ID]))
				if p.Reversed {
					w.u8(1)
				} else {
					w.u8(0)
				}
			}
		}
	}

	w.u32(uint32(l.arcs))
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if !a.Alive {
			continue
		}
		w.u32(uint32(l.nodeSlot[a.Upper]))
		w.u32(uint32(l.nodeSlot[a.Lower]))
		w.u32(uint32(l.geomSlot[a.Geom]))
	}

	w.u32(uint32(len(c.Hierarchy)))
	for _, h := range c.Hierarchy {
		w.f32(h.Persistence)
		w.u64(uint64(h.UpperCell))
		w.u64(uint64(h.LowerCell))
		w.f32(h.UpperValue)
		w.f32(h.LowerValue)
		w.u32(uint32(h.ArcsRemoved))
		w.u32(uint32(h.ArcsCreated))
	}
	if n := int64(len(w.buf) - len(dst)); n != l.size {
		panic(fmt.Sprintf("mscomplex: serialized %d bytes, sized %d", n, l.size))
	}
	c.Work.BytesCoded += l.size
	return w.buf
}

// Deserialize decodes a serialized complex. Every count is validated
// against the remaining payload before anything is allocated, so a
// corrupted or truncated payload returns an error instead of attempting
// an enormous allocation. A skim of the node and geometry sections sizes
// the owner, cell and part arenas exactly before they are filled.
func Deserialize(data []byte) (*Complex, error) {
	r := reader{buf: data}
	if r.u32() != serialMagic {
		return nil, fmt.Errorf("mscomplex: bad magic")
	}
	nRegion := int(r.u32())
	if !r.fits(nRegion, 4) {
		return nil, fmt.Errorf("mscomplex: region count %d exceeds payload", nRegion)
	}
	region := make([]int32, nRegion)
	for i := range region {
		region[i] = int32(r.u32())
	}
	nNodes := int(r.u32())
	if !r.fits(nNodes, 8+1+4+8+2) {
		return nil, fmt.Errorf("mscomplex: node count %d exceeds payload", nNodes)
	}
	// Skim the node and geometry sections, checking every count against
	// the remaining payload, to size the owner, cell and part arenas
	// exactly before anything is allocated.
	nodeSection := r.off
	nOwners := 0
	for i := 0; i < nNodes && r.err == nil; i++ {
		r.skip(8 + 1 + 4 + 8)
		k := int(r.u16())
		if !r.fits(k, 4) {
			return nil, fmt.Errorf("mscomplex: owner count %d exceeds payload", k)
		}
		r.skip(4 * k)
		nOwners += k
	}
	nGeoms := int(r.u32())
	if !r.fits(nGeoms, 1) {
		return nil, fmt.Errorf("mscomplex: geometry count %d exceeds payload", nGeoms)
	}
	nCells, nParts := 0, 0
	for i := 0; i < nGeoms && r.err == nil; i++ {
		switch kind := r.u8(); kind {
		case 0:
			k := int(r.u32())
			if !r.fits(k, 8) {
				return nil, fmt.Errorf("mscomplex: geometry cell count %d exceeds payload", k)
			}
			r.skip(8 * k)
			nCells += k
		case 1:
			k := int(r.u16())
			if !r.fits(k, 5) {
				return nil, fmt.Errorf("mscomplex: geometry part count %d exceeds payload", k)
			}
			r.skip(5 * k)
			nParts += k
		default:
			return nil, fmt.Errorf("mscomplex: unknown geometry kind %d", kind)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if n := max(nOwners, nCells, nParts); n > math.MaxInt32 {
		return nil, fmt.Errorf("mscomplex: arena of %d entries exceeds int32 offsets", n)
	}
	r.off = nodeSection

	// Nodes, geometries and arcs are added in slot order to an empty
	// complex, so a slot is also the element's id.
	c := newSized(region, nNodes)
	c.owners = make([]int32, 0, nOwners)
	c.Geoms = make([]Geom, 0, nGeoms)
	c.cells = make([]grid.Addr, 0, nCells)
	c.parts = make([]GeomPart, 0, nParts)
	for i := 0; i < nNodes; i++ {
		var n Node
		n.Cell = grid.Addr(r.u64())
		n.Index = r.u8()
		n.Value = r.f32()
		n.MaxVert = int64(r.u64())
		k := int(r.u16())
		n.owners = newSpan(len(c.owners), k)
		for j := 0; j < k; j++ {
			c.owners = append(c.owners, int32(r.u32()))
		}
		if n.Index > 3 {
			return nil, fmt.Errorf("mscomplex: node %d has index %d", i, n.Index)
		}
		if _, dup := c.NodeAt(n.Cell); dup {
			return nil, fmt.Errorf("mscomplex: duplicate node at cell %d", n.Cell)
		}
		c.insertNode(n)
	}
	r.u32() // the geometry count, read by the skim
	for i := 0; i < nGeoms; i++ {
		if r.u8() == 0 {
			k := int(r.u32())
			c.Geoms = append(c.Geoms, Geom{span: newSpan(len(c.cells), k)})
			for j := 0; j < k; j++ {
				c.cells = append(c.cells, grid.Addr(r.u64()))
			}
			continue
		}
		k := int(r.u16())
		c.Geoms = append(c.Geoms, Geom{span: newSpan(len(c.parts), k), composite: true})
		for j := 0; j < k; j++ {
			slot := int(r.u32())
			rev := r.u8() == 1
			if slot >= i {
				return nil, fmt.Errorf("mscomplex: geometry %d references later object %d", i, slot)
			}
			c.parts = append(c.parts, GeomPart{ID: GeomID(slot), Reversed: rev})
		}
	}

	nArcs := int(r.u32())
	if !r.fits(nArcs, 12) {
		return nil, fmt.Errorf("mscomplex: arc count %d exceeds payload", nArcs)
	}
	// Size every node's incidence list from the arc section before
	// adding arcs; out-of-range endpoints are rejected below.
	deg := make([]int32, nNodes)
	arcSection := r.off
	for i := 0; i < nArcs; i++ {
		upper, lower := int(r.u32()), int(r.u32())
		r.u32()
		if upper < nNodes && lower < nNodes {
			deg[upper]++
			deg[lower]++
		}
	}
	r.off = arcSection
	carveArcLists(c.Nodes, deg)
	c.Arcs = make([]Arc, 0, nArcs)
	for i := 0; i < nArcs; i++ {
		upper := int(r.u32())
		lower := int(r.u32())
		geomSlot := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if upper >= nNodes || lower >= nNodes {
			return nil, fmt.Errorf("mscomplex: arc %d references node out of range", i)
		}
		if geomSlot >= nGeoms {
			return nil, fmt.Errorf("mscomplex: arc %d references geometry out of range", i)
		}
		if c.Nodes[upper].Index != c.Nodes[lower].Index+1 {
			return nil, fmt.Errorf("mscomplex: arc %d connects index %d to %d",
				i, c.Nodes[upper].Index, c.Nodes[lower].Index)
		}
		c.AddArc(NodeID(upper), NodeID(lower), GeomID(geomSlot))
	}

	nHier := int(r.u32())
	if !r.fits(nHier, 36) {
		return nil, fmt.Errorf("mscomplex: hierarchy count %d exceeds payload", nHier)
	}
	if r.err == nil {
		c.Hierarchy = make([]Cancellation, 0, nHier)
		for i := 0; i < nHier; i++ {
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
	if r.err != nil {
		return nil, r.err
	}
	c.Work.BytesCoded += int64(len(data))
	return c, nil
}

// SerializedSize returns the exact number of bytes Serialize would emit,
// without building the payload.
func (c *Complex) SerializedSize() int64 {
	return c.layout().size
}

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f32(v float32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, f32bits(v))
}

type reader struct {
	buf []byte
	off int
	err error
}

// zeros is what take returns past the end of the payload: a fixed
// buffer, so no count read from a bad payload becomes an allocation.
var zeros [8]byte

// take returns the next n ≤ 8 bytes, or zeros once the payload is
// exhausted, recording the error.
func (r *reader) take(n int) []byte {
	if !r.fits(n, 1) {
		r.fail()
		return zeros[:n]
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// skip advances past n bytes, recording an error if fewer remain.
func (r *reader) skip(n int) {
	if !r.fits(n, 1) {
		r.fail()
		return
	}
	r.off += n
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("mscomplex: truncated payload at offset %d", r.off)
	}
}

// fits reports whether count elements of at least minSize bytes each
// could still be present in the remaining payload.
func (r *reader) fits(count, minSize int) bool {
	return r.err == nil && count >= 0 && count <= (len(r.buf)-r.off)/minSize
}

func (r *reader) u8() uint8   { return r.take(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *reader) f32() float32 {
	return f32frombits(binary.LittleEndian.Uint32(r.take(4)))
}
