package gradient

import (
	"fmt"
	"slices"
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/synth"
)

func fullBlock(dims grid.Dims) grid.Block {
	return grid.Block{ID: 0, Lo: [3]int{0, 0, 0}, Hi: [3]int{dims[0] - 1, dims[1] - 1, dims[2] - 1}}
}

func TestRampGradient(t *testing.T) {
	dims := grid.Dims{8, 8, 8}
	vol := synth.Ramp(dims)
	c := cube.New(dims, fullBlock(dims), vol)
	f := Compute(c, nil)
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid gradient: %v", err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler characteristic %d, want 1 (counts %v)", euler, counts)
	}
	if counts[0] < 1 {
		t.Fatalf("no minimum found: %v", counts)
	}
	// A monotone ramp is collapsible: the greedy construction should
	// find exactly one critical cell, the global minimum.
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total != 1 {
		t.Errorf("ramp has %d critical cells %v, want exactly 1", total, counts)
	}
}

func TestSinusoidGradientEuler(t *testing.T) {
	dims := grid.Dims{17, 17, 17}
	vol := synth.Sinusoid(17, 2)
	c := cube.New(dims, fullBlock(dims), vol)
	f := Compute(c, nil)
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid gradient: %v", err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler characteristic %d, want 1 (counts %v)", euler, counts)
	}
	if counts[3] == 0 {
		t.Fatalf("sinusoid with 2 features per side should have maxima, got %v", counts)
	}
}

func TestRandomGradientValidAndEuler(t *testing.T) {
	dims := grid.Dims{10, 10, 10}
	vol := synth.Random(dims, 42)
	c := cube.New(dims, fullBlock(dims), vol)
	f := Compute(c, nil)
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid gradient: %v", err)
	}
	counts := f.CriticalCounts()
	if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
		t.Fatalf("Euler characteristic %d, want 1 (counts %v)", euler, counts)
	}
}

// TestSharedFaceConsistency verifies the paper's key property (section
// IV-C): the discrete gradients computed independently by two
// neighboring blocks are identical on their shared boundary.
func TestSharedFaceConsistency(t *testing.T) {
	dims := grid.Dims{16, 12, 10}
	vol := synth.Random(dims, 7)
	dec, err := grid.Decompose(dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumBlocks() != 2 {
		t.Fatalf("expected 2 blocks, got %d", dec.NumBlocks())
	}
	fields := make([]*Field, 2)
	for i, b := range dec.Blocks {
		sub := vol.SubVolume(b.Lo, b.Hi)
		c := cube.New(dims, b, sub)
		fields[i] = Compute(c, dec)
		if err := fields[i].Validate(); err != nil {
			t.Fatalf("block %d invalid gradient: %v", i, err)
		}
	}
	// Walk every cell of block 0 that is also contained in block 1 and
	// compare the full state byte.
	c0, c1 := fields[0].C, fields[1].C
	n0 := c0.NumCells()
	checked := 0
	for idx := 0; idx < n0; idx++ {
		addr := c0.GlobalAddr(idx)
		idx1, ok := c1.LocalFromGlobal(addr)
		if !ok {
			continue
		}
		checked++
		if s0, s1 := fields[0].StateByte(idx), fields[1].StateByte(idx1); s0 != s1 {
			x, y, z := c0.GlobalCoords(idx)
			t.Fatalf("state mismatch at global cell (%d,%d,%d): block0=%#x block1=%#x", x, y, z, s0, s1)
		}
	}
	if checked == 0 {
		t.Fatal("no shared cells checked")
	}
	t.Logf("checked %d shared cells", checked)
}

// TestManyBlocksConsistency extends the consistency check to an 8-block
// decomposition with edges and corners shared by 4 and 8 blocks.
func TestManyBlocksConsistency(t *testing.T) {
	dims := grid.Dims{12, 12, 12}
	vol := synth.Random(dims, 99)
	dec, err := grid.Decompose(dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]*Field, dec.NumBlocks())
	for i, b := range dec.Blocks {
		sub := vol.SubVolume(b.Lo, b.Hi)
		fields[i] = Compute(cube.New(dims, b, sub), dec)
	}
	for i := range fields {
		for j := i + 1; j < len(fields); j++ {
			ci, cj := fields[i].C, fields[j].C
			for idx := 0; idx < ci.NumCells(); idx++ {
				addr := ci.GlobalAddr(idx)
				jdx, ok := cj.LocalFromGlobal(addr)
				if !ok {
					continue
				}
				if si, sj := fields[i].StateByte(idx), fields[j].StateByte(jdx); si != sj {
					x, y, z := ci.GlobalCoords(idx)
					t.Fatalf("blocks %d/%d disagree at (%d,%d,%d): %#x vs %#x", i, j, x, y, z, si, sj)
				}
			}
		}
	}
}

// TestBoundaryRestrictionIndependence: the gradient on a shared face
// must not depend on the data in the interior of either block. Change
// interior values of block 0 and verify the face states are unchanged.
func TestBoundaryRestrictionIndependence(t *testing.T) {
	dims := grid.Dims{12, 8, 8}
	dec, err := grid.Decompose(dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	b0 := dec.Blocks[0]

	volA := synth.Random(dims, 1)
	volB := synth.Random(dims, 2)
	// Make the two volumes agree exactly on the shared plane x == b0.Hi[0].
	plane := b0.Hi[0]
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			volB.Set(plane, y, z, volA.At(plane, y, z))
		}
	}
	fA := Compute(cube.New(dims, b0, volA.SubVolume(b0.Lo, b0.Hi)), dec)
	fB := Compute(cube.New(dims, b0, volB.SubVolume(b0.Lo, b0.Hi)), dec)
	cA := fA.C
	for idx := 0; idx < cA.NumCells(); idx++ {
		gx, _, _ := cA.GlobalCoords(idx)
		if gx != 2*plane {
			continue
		}
		if sA, sB := fA.StateByte(idx), fB.StateByte(idx); sA != sB {
			t.Fatalf("face state depends on interior data at cell %d: %#x vs %#x", idx, sA, sB)
		}
	}
}

func BenchmarkGradient32(b *testing.B) {
	dims := grid.Dims{32, 32, 32}
	vol := synth.Sinusoid(32, 4)
	block := fullBlock(dims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cube.New(dims, block, vol)
		Compute(c, nil)
	}
}

// TestStrataIDs holds the face-only, allocation-free stratum
// classification to the direct definition: every cell on any block
// face, its owner set from OwnersOfRefined, ids numbered by first
// appearance in cell-index order. It also pins the largest id any
// block gets, which the one-byte stratum storage must hold: 17³ in 64
// blocks bisects into a regular 4×4×4 grid whose inner blocks touch all
// 26 neighbours, and uneven bisections give some blocks more strata
// than that, as 41×23×57 in 100 blocks shows.
func TestStrataIDs(t *testing.T) {
	for _, tc := range []struct {
		dims    grid.Dims
		nblocks int
		maxID   int32
	}{
		{grid.Dims{13, 10, 9}, 27, 21},
		{grid.Dims{17, 17, 17}, 64, 26},
		{grid.Dims{41, 23, 57}, 100, 33},
	} {
		vol := synth.Random(tc.dims, 5)
		dec, err := grid.Decompose(tc.dims, tc.nblocks)
		if err != nil {
			t.Fatal(err)
		}
		maxID := int32(0)
		for _, b := range dec.Blocks {
			f := Compute(cube.New(tc.dims, b, vol.SubVolume(b.Lo, b.Hi)), dec)
			c := f.C
			intern := map[string]int32{}
			for idx := 0; idx < c.NumCells(); idx++ {
				want := int32(0)
				if c.OnAnyFace(idx) {
					gx, gy, gz := c.GlobalCoords(idx)
					if owners := dec.OwnersOfRefined(b.ID, gx, gy, gz); len(owners) > 1 {
						key := fmt.Sprint(owners)
						id, ok := intern[key]
						if !ok {
							id = int32(len(intern) + 1)
							intern[key] = id
						}
						want = id
					}
				}
				if got := f.Stratum(idx); got != want {
					t.Fatalf("%v in %d blocks, block %d cell %d: stratum %d, want %d",
						tc.dims, tc.nblocks, b.ID, idx, got, want)
				}
				maxID = max(maxID, want)
			}
		}
		if maxID != tc.maxID {
			t.Fatalf("%v in %d blocks: largest stratum id %d, want %d", tc.dims, tc.nblocks, maxID, tc.maxID)
		}
	}
}

// TestStrataBound runs the face classification alone, without the
// gradient, over the decompositions perfbench and the EXPERIMENTS
// drivers (at Scale 1 and their default rank caps) run, and over every
// block count up to 128 on two shapes whose bisections cut unevenly. It
// pins the largest stratum id of each row, which the one-byte stratum
// storage must hold (classifyStrata panics past 255).
func TestStrataBound(t *testing.T) {
	pow2 := func(lo, hi int) []int {
		var out []int
		for n := lo; n <= hi; n *= 2 {
			out = append(out, n)
		}
		return out
	}
	upTo128 := make([]int, 128)
	for i := range upTo128 {
		upTo128[i] = i + 1
	}
	for _, tc := range []struct {
		name   string
		dims   grid.Dims
		counts []int
		maxID  int
	}{
		{"perfbench", grid.Dims{97, 97, 97}, []int{16}, 11},
		{"perfbench", grid.Dims{49, 49, 49}, []int{16}, 11},
		{"perfbench", grid.Dims{64, 64, 64}, []int{64}, 26},
		{"perfbench-tiny", grid.Dims{17, 17, 17}, []int{16}, 11},
		{"perfbench-tiny", grid.Dims{13, 13, 13}, []int{16}, 11},
		{"perfbench-tiny", grid.Dims{25, 25, 25}, []int{64}, 26},
		{"tableI-tableII-speedup", grid.Dims{97, 97, 97}, append(pow2(1, 64), 256, 2048), 26},
		{"fig4-fig5-fig6-loadbalance-mapping", grid.Dims{65, 65, 65}, pow2(1, 512), 26},
		{"fig6-bench-recovery", grid.Dims{33, 33, 33}, pow2(8, 256), 26},
		{"fig6", grid.Dims{129, 129, 129}, pow2(8, 256), 26},
		{"fig7-fig9-globalsimplify", grid.Dims{96, 112, 64}, pow2(32, 2048), 26},
		{"fig10", grid.Dims{96, 96, 96}, pow2(128, 4096), 36},
		{"bench", grid.Dims{64, 64, 64}, pow2(8, 64), 27},
		{"uneven", grid.Dims{41, 23, 57}, upTo128, 33},
		{"uneven", grid.Dims{33, 33, 33}, upTo128, 42},
	} {
		t.Run(fmt.Sprintf("%s-%dx%dx%d", tc.name, tc.dims[0], tc.dims[1], tc.dims[2]), func(t *testing.T) {
			t.Parallel()
			var buf []uint8
			largest := 0
			for _, n := range tc.counts {
				dec, err := grid.Decompose(tc.dims, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range dec.Blocks {
					c := cube.New(tc.dims, b, &grid.Volume{Dims: b.Dims()})
					if cap(buf) < c.NumCells() {
						buf = make([]uint8, c.NumCells())
					}
					f := &Field{C: c, strata: buf[:c.NumCells()]}
					clear(f.strata)
					f.classifyStrata(dec)
					largest = max(largest, int(slices.Max(f.strata)))
				}
			}
			if largest != tc.maxID {
				t.Errorf("%s %v: largest stratum id %d, want %d", tc.name, tc.dims, largest, tc.maxID)
			}
		})
	}
}
