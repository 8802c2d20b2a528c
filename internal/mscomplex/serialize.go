package mscomplex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
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
// survives merging and storage. GlueSerialized is the one decoder.
const serialMagic = 0x3243534d // "MSC2"

// layout is the alive part of a complex as Serialize and Compact lay it
// out: alive nodes and arcs in id order, and the geometry objects
// reachable from alive arcs numbered children first, shared children
// once, so a reader resolves every reference in one pass. Its tables
// come from layoutPool; the caller puts them back when done.
type layout struct {
	nodeSlot  []NodeID // new id of each node; -1 = dead
	geomSlot  []GeomID // new id of each geometry; -1 = unreachable
	geomOrder []GeomID // reachable geometries by new id
	geoms     []GeomID // the array geomSlot and geomOrder share, whole
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
	l := layoutPool.Get().(*layout)
	l.geoms = slices.Grow(l.geoms[:0], 2*len(c.Geoms))[:2*len(c.Geoms)]
	*l = layout{
		nodeSlot:  slices.Grow(l.nodeSlot[:0], len(c.Nodes))[:len(c.Nodes)],
		geomSlot:  l.geoms[:len(c.Geoms)],
		geomOrder: l.geoms[len(c.Geoms):len(c.Geoms)],
		geoms:     l.geoms,
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

var layoutPool = sync.Pool{New: func() any { return new(layout) }}

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
	defer layoutPool.Put(l)
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

// Deserialize decodes a serialized complex by gluing it onto an empty
// one, which sizes every array exactly; it bills the bytes decoded and
// the arcs added, not glued nodes.
func Deserialize(data []byte) (*Complex, error) {
	c := &Complex{}
	if err := c.GlueSerialized(data); err != nil {
		return nil, err
	}
	c.Work.NodesGlued, c.Work.BytesCoded = 0, int64(len(data))
	return c, nil
}

// SerializedSize returns the exact number of bytes Serialize would emit,
// without building the payload.
func (c *Complex) SerializedSize() int64 {
	l := c.layout()
	defer layoutPool.Put(l)
	return l.size
}

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f32(v float32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(v))
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
	return math.Float32frombits(binary.LittleEndian.Uint32(r.take(4)))
}
