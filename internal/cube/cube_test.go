package cube

import (
	"math"
	"testing"
	"testing/quick"

	"parms/internal/grid"
)

func testComplex(dims grid.Dims) *Complex {
	vol := grid.NewVolume(dims)
	for i := range vol.Data {
		// A deterministic, collision-free pseudo-random field.
		vol.Data[i] = float32((i*2654435761)%1000003) / 1000003
	}
	block := grid.Block{ID: 0, Lo: [3]int{0, 0, 0}, Hi: [3]int{dims[0] - 1, dims[1] - 1, dims[2] - 1}}
	return New(dims, block, vol)
}

// TestNewCellIndexBound holds New to the int32 cell-index bound that
// Coords and the gradient and tracer arrays rely on: a 645×645×646
// block has 1289²·1291 refined cells, which fits, and a 645×646×646
// block 1289·1291², which does not. The volumes carry dims only: New
// never reads the samples.
func TestNewCellIndexBound(t *testing.T) {
	build := func(bd grid.Dims) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		block := grid.Block{Hi: [3]int{bd[0] - 1, bd[1] - 1, bd[2] - 1}}
		New(bd, block, &grid.Volume{Dims: bd})
		return false
	}
	if at := (grid.Dims{645, 645, 646}); build(at) {
		t.Fatalf("%v panicked; its cell indices fit an int32", at)
	}
	if over := (grid.Dims{645, 646, 646}); !build(over) {
		t.Fatalf("%v did not panic; its cell indices overflow an int32", over)
	}
}

func TestCellCounts(t *testing.T) {
	c := testComplex(grid.Dims{4, 5, 6})
	if c.NumCells() != 7*9*11 {
		t.Fatalf("cells %d", c.NumCells())
	}
	var counts [4]int
	for i := 0; i < c.NumCells(); i++ {
		counts[c.Dim(i)]++
	}
	// Cubical complex on a 4×5×6 vertex grid.
	wantVerts := 4 * 5 * 6
	wantVoxels := 3 * 4 * 5
	if counts[0] != wantVerts || counts[3] != wantVoxels {
		t.Fatalf("counts %v", counts)
	}
	// Euler characteristic of a solid box via cell counts.
	if chi := counts[0] - counts[1] + counts[2] - counts[3]; chi != 1 {
		t.Fatalf("cell Euler characteristic %d", chi)
	}
}

func TestFacetCofacetDuality(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	var fb, cb [6]int
	for idx := 0; idx < c.NumCells(); idx++ {
		for _, f := range c.Facets(idx, fb[:0]) {
			if c.Dim(f) != c.Dim(idx)-1 {
				t.Fatalf("facet of %d-cell has dim %d", c.Dim(idx), c.Dim(f))
			}
			found := false
			for _, back := range c.Cofacets(f, cb[:0]) {
				if back == idx {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cell %d not among cofacets of its facet %d", idx, f)
			}
		}
		for _, co := range c.Cofacets(idx, cb[:0]) {
			if c.Dim(co) != c.Dim(idx)+1 {
				t.Fatalf("cofacet of %d-cell has dim %d", c.Dim(idx), c.Dim(co))
			}
		}
	}
}

func TestFacetCountsByDim(t *testing.T) {
	c := testComplex(grid.Dims{5, 5, 5})
	var fb [6]int
	for idx := 0; idx < c.NumCells(); idx++ {
		n := len(c.Facets(idx, fb[:0]))
		if n != 2*c.Dim(idx) {
			t.Fatalf("%d-cell has %d facets", c.Dim(idx), n)
		}
	}
}

func TestVertKeysSortedDistinct(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	var buf [8]VertKey
	for idx := 0; idx < c.NumCells(); idx++ {
		keys := c.VertKeys(idx, buf[:])
		if len(keys) != 1<<c.Dim(idx) {
			t.Fatalf("%d-cell has %d vertices", c.Dim(idx), len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1].Less(keys[i]) {
				t.Fatalf("keys of cell %d not descending", idx)
			}
			if keys[i-1] == keys[i] {
				t.Fatalf("duplicate vertex key in cell %d", idx)
			}
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	f := func(a, b uint16) bool {
		ca := int(a) % c.NumCells()
		cb := int(b) % c.NumCells()
		// Antisymmetry and reflexivity, restricted to equal dimension
		// (the order the gradient construction uses).
		if c.Dim(ca) != c.Dim(cb) {
			return true
		}
		cmp := c.Compare(ca, cb)
		if ca == cb {
			return cmp == 0
		}
		return cmp != 0 && cmp == -c.Compare(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalLocalRoundTrip(t *testing.T) {
	dims := grid.Dims{12, 10, 8}
	block := grid.Block{ID: 3, Lo: [3]int{2, 1, 3}, Hi: [3]int{7, 6, 7}}
	vol := grid.NewVolume(block.Dims())
	c := New(dims, block, vol)
	for idx := 0; idx < c.NumCells(); idx++ {
		back, ok := c.LocalFromGlobal(c.GlobalAddr(idx))
		if !ok || back != idx {
			t.Fatalf("cell %d round trip gave %d, %v", idx, back, ok)
		}
	}
	// An address outside the block must be rejected.
	if _, ok := c.LocalFromGlobal(c.Space.Encode(0, 0, 0)); ok {
		t.Fatal("accepted cell outside block")
	}
}

func TestValueIsMaxOfVertices(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	var buf [8]VertKey
	for idx := 0; idx < c.NumCells(); idx++ {
		keys := c.VertKeys(idx, buf[:])
		max := keys[0].Val
		for _, k := range keys {
			if k.Val > max {
				t.Fatalf("VertKeys[0] not maximal for cell %d", idx)
			}
		}
		if c.Value(idx) != max {
			t.Fatalf("Value(%d) = %v, want %v", idx, c.Value(idx), max)
		}
	}
}

func TestOnBlockFace(t *testing.T) {
	c := testComplex(grid.Dims{4, 4, 4})
	if !c.OnBlockFace(c.Index(0, 3, 2), 0, 0) {
		t.Fatal("low-x cell not on low-x face")
	}
	if c.OnBlockFace(c.Index(1, 3, 2), 0, 0) {
		t.Fatal("interior-x cell reported on low-x face")
	}
	if !c.OnBlockFace(c.Index(c.NX-1, 0, 0), 0, 1) {
		t.Fatal("high-x cell not on high-x face")
	}
	if !c.OnAnyFace(c.Index(0, 1, 1)) || c.OnAnyFace(c.Index(1, 1, 1)) {
		t.Fatal("OnAnyFace misclassifies")
	}
}

// TestOrderBits pins the sample order every SoS comparison starts from:
// float order on ordinary values, -0 tied with +0, and every NaN tied
// with every other NaN above +Inf.
func TestOrderBits(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	ascending := []float32{
		float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		0, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, float32(math.Inf(1)),
		float32(math.NaN()),
	}
	for i := 1; i < len(ascending); i++ {
		if a, b := OrderBits(ascending[i-1]), OrderBits(ascending[i]); a >= b {
			t.Fatalf("OrderBits(%v)=%#x not below OrderBits(%v)=%#x", ascending[i-1], a, ascending[i], b)
		}
	}
	if OrderBits(negZero) != OrderBits(0) {
		t.Fatal("-0 and +0 must tie")
	}
	nan := OrderBits(float32(math.NaN()))
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fffffff} {
		if got := OrderBits(math.Float32frombits(bits)); got != nan {
			t.Fatalf("NaN %#x keyed %#x, want the canonical %#x", bits, got, nan)
		}
	}
	// VertKey.Less follows the same order and breaks ties by id.
	n := VertKey{Val: math.Float32frombits(0xffc00000), ID: 1}
	inf := VertKey{Val: float32(math.Inf(1)), ID: 2}
	if !inf.Less(n) || n.Less(inf) {
		t.Fatal("NaN must sort above +Inf")
	}
	if !(VertKey{Val: negZero, ID: 1}).Less(VertKey{Val: 0, ID: 2}) ||
		!(VertKey{Val: 0, ID: 1}).Less(VertKey{Val: negZero, ID: 2}) {
		t.Fatal("±0 must tie on value and fall back to the id")
	}
}
