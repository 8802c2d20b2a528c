package gradient

import (
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/synth"
)

// TestFlatField: a perfectly constant field is the worst case for
// simulation of simplicity — every comparison is decided by vertex ids
// alone. The gradient must still be valid with Euler characteristic 1,
// and ideally fully collapsible (a single critical cell).
func TestFlatField(t *testing.T) {
	dims := grid.Dims{6, 6, 6}
	vol := grid.NewVolume(dims)
	for i := range vol.Data {
		vol.Data[i] = 7
	}
	f := Compute(cube.New(dims, fullBlock(dims), vol), nil)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler %d (counts %v)", euler, counts)
	}
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total > 3 {
		t.Errorf("flat field left %d critical cells %v; simulation of simplicity should collapse almost everything", total, counts)
	}
}

// TestThinDomain: a 2-voxel-thick slab exercises the degenerate
// cofacet-bound paths of the cell complex.
func TestThinDomain(t *testing.T) {
	for _, dims := range []grid.Dims{{16, 16, 2}, {2, 16, 16}, {16, 2, 16}, {2, 2, 16}} {
		vol := synth.Random(dims, 3)
		f := Compute(cube.New(dims, fullBlock(dims), vol), nil)
		if err := f.Validate(); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		counts := f.CriticalCounts()
		if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
			t.Fatalf("%v: Euler %d (counts %v)", dims, euler, counts)
		}
	}
}

// TestThinBlockDirections: in a block one sample thick along x or y a
// step along the next axis moves the cell index by the same amount as a
// step along x (or y), so a direction code with the wrong axis still
// finds the right partner. The code must nevertheless name the axis the
// partner lies along, and HeadOf must tell a tail from a head: a head,
// like a critical cell, has HeadOf -1.
// Decompose refuses domains under two samples per axis, so thin blocks
// are either a whole volume or a box inside one; both are checked.
func TestThinBlockDirections(t *testing.T) {
	for _, tc := range []struct {
		dims   grid.Dims
		lo, hi [3]int
	}{
		{grid.Dims{9, 2, 1}, [3]int{0, 0, 0}, [3]int{8, 1, 0}},
		{grid.Dims{9, 2, 1}, [3]int{2, 0, 0}, [3]int{7, 1, 0}},
		{grid.Dims{5, 1, 4}, [3]int{0, 0, 0}, [3]int{4, 0, 3}},
		{grid.Dims{5, 1, 4}, [3]int{1, 0, 2}, [3]int{4, 0, 3}},
		{grid.Dims{1, 6, 3}, [3]int{0, 0, 0}, [3]int{0, 5, 2}},
		{grid.Dims{1, 1, 7}, [3]int{0, 0, 0}, [3]int{0, 0, 6}},
		{grid.Dims{1, 1, 7}, [3]int{0, 0, 3}, [3]int{0, 0, 6}},
	} {
		vol := synth.Random(tc.dims, 11)
		b := grid.Block{Lo: tc.lo, Hi: tc.hi}
		f := Compute(cube.New(tc.dims, b, vol.SubVolume(b.Lo, b.Hi)), nil)
		if err := f.Validate(); err != nil {
			t.Fatalf("%v block %v: %v", tc.dims, b, err)
		}
		c := f.C
		for idx := 0; idx < c.NumCells(); idx++ {
			if f.IsCritical(idx) {
				if h := f.HeadOf(idx); h != -1 {
					t.Fatalf("%v block %v: critical cell %d has HeadOf %d", tc.dims, b, idx, h)
				}
				continue
			}
			p, ok := f.PairedWith(idx)
			if !ok {
				continue
			}
			x, y, z := c.Coords(idx)
			px, py, pz := c.Coords(p)
			delta := [3]int{px - x, py - y, pz - z}
			dir := int(f.StateByte(idx) & dirMask)
			axis, step := dir/2, 2*(dir&1)-1
			for a, dv := range delta {
				want := 0
				if a == axis {
					want = step
				}
				if dv != want {
					t.Fatalf("%v block %v: cell %d paired with %d (offset %v), direction code %d says axis %d step %+d",
						tc.dims, b, idx, p, delta, dir, axis, step)
				}
			}
			want := int32(-1)
			if f.IsTail(idx) {
				want = int32(p)
			}
			if h := f.HeadOf(idx); h != want {
				t.Fatalf("%v block %v: cell %d (tail %v) has HeadOf %d, want %d", tc.dims, b, idx, f.IsTail(idx), h, want)
			}
		}
	}
}

// TestAnisotropicConsistency: shared-face determinism must hold for
// non-cubic domains and decompositions that split different axes.
func TestAnisotropicConsistency(t *testing.T) {
	dims := grid.Dims{24, 8, 6}
	vol := synth.Random(dims, 77)
	dec, err := grid.Decompose(dims, 6)
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]*Field, dec.NumBlocks())
	for i, b := range dec.Blocks {
		fields[i] = Compute(cube.New(dims, b, vol.SubVolume(b.Lo, b.Hi)), dec)
		if err := fields[i].Validate(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	for i := range fields {
		for j := i + 1; j < len(fields); j++ {
			ci, cj := fields[i].C, fields[j].C
			for idx := 0; idx < ci.NumCells(); idx++ {
				jdx, ok := cj.LocalFromGlobal(ci.GlobalAddr(idx))
				if !ok {
					continue
				}
				if fields[i].StateByte(idx) != fields[j].StateByte(jdx) {
					t.Fatalf("blocks %d/%d disagree on a shared cell", i, j)
				}
			}
		}
	}
}

// TestByteData: the u8 sample path (hydrogen-style data) must survive
// the whole gradient stage, plateaus and all.
func TestByteData(t *testing.T) {
	vol := synth.Hydrogen(17)
	f := Compute(cube.New(vol.Dims, fullBlock(vol.Dims), vol), nil)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler %d (counts %v)", euler, counts)
	}
	if counts[3] == 0 {
		t.Fatal("hydrogen proxy should have maxima")
	}
}

// TestDeterminism: the same input must produce byte-identical gradients
// across repeated runs (no map-iteration or scheduling dependence).
func TestDeterminism(t *testing.T) {
	dims := grid.Dims{10, 10, 10}
	vol := synth.Random(dims, 13)
	dec, err := grid.Decompose(dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := dec.Blocks[1]
	sub := vol.SubVolume(b.Lo, b.Hi)
	ref := Compute(cube.New(dims, b, sub), dec)
	for run := 0; run < 3; run++ {
		f := Compute(cube.New(dims, b, sub), dec)
		for idx := 0; idx < f.C.NumCells(); idx++ {
			if f.StateByte(idx) != ref.StateByte(idx) {
				t.Fatalf("run %d: cell %d differs", run, idx)
			}
		}
	}
}
