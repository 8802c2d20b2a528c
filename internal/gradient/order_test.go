package gradient

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
)

// Value palettes for the order oracle: each stresses a different part
// of the simulation-of-simplicity tie-breaking.
const (
	paletteRandom  = iota // distinct-ish random values
	palettePlateau        // a handful of levels: ties decided by ids
	paletteSigned         // ±0 and ±Inf mixed with ordinary values
	paletteNaN            // NaNs of several signs and payloads, too
	paletteCount
)

func paletteVolume(dims grid.Dims, palette int, seed int64) *grid.Volume {
	rng := rand.New(rand.NewSource(seed))
	vol := grid.NewVolume(dims)
	special := []float32{
		float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1,
	}
	nans := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345),
	}
	for i := range vol.Data {
		switch palette {
		case paletteRandom:
			vol.Data[i] = rng.Float32()
		case palettePlateau:
			vol.Data[i] = float32(rng.Intn(4)) / 4
		case paletteSigned:
			vol.Data[i] = special[rng.Intn(len(special))]
		case paletteNaN:
			if rng.Intn(3) == 0 {
				vol.Data[i] = nans[rng.Intn(len(nans))]
			} else {
				vol.Data[i] = special[rng.Intn(len(special))]
			}
		}
	}
	return vol
}

// checkCellOrder asserts that the rank-based order of every dimension
// equals sort.Slice by cube.Compare, the direct statement of the SoS
// order, and that the rank-based cofacet comparison agrees with
// cube.Compare on every pair of cofacets of every cell.
func checkCellOrder(t testing.TB, c *cube.Complex) {
	t.Helper()
	r := newRanking(c, new(blockScratch))
	counts := r.cellCounts()
	var byDim [4][]int32
	for idx := 0; idx < c.NumCells(); idx++ {
		byDim[c.Dim(idx)] = append(byDim[c.Dim(idx)], int32(idx))
	}
	for d := 0; d < 4; d++ {
		if len(byDim[d]) != counts[d] {
			t.Fatalf("block %v: %d %d-cells, cellCounts says %d", c.Block, len(byDim[d]), d, counts[d])
		}
	}
	for d := 0; d <= 2; d++ {
		want := slices.Clone(byDim[d])
		sort.Slice(want, func(i, j int) bool { return c.Compare(int(want[i]), int(want[j])) < 0 })
		got := r.appendCells(nil, d)
		if !slices.Equal(got, want) {
			t.Fatalf("block %v: %d-cell order differs from cube.Compare\n got %v\nwant %v", c.Block, d, got, want)
		}
	}
	// cofacetKey of idx's cofacet co: the axis and sign of co - idx.
	key := func(idx, co int) int32 {
		x, y, z := c.Coords(idx)
		cx, cy, cz := c.Coords(co)
		p, q := [3]int{x, y, z}, [3]int{cx, cy, cz}
		for a := range p {
			if q[a] != p[a] {
				return r.cofacetKey(p, a, q[a]-p[a])
			}
		}
		t.Fatalf("cell %d is no cofacet of %d", co, idx)
		return 0
	}
	var cb [6]int
	for idx := 0; idx < c.NumCells(); idx++ {
		cofacets := c.Cofacets(idx, cb[:0])
		for _, a := range cofacets {
			for _, b := range cofacets {
				if a == b {
					continue
				}
				byRank := key(idx, a) < key(idx, b)
				if byCompare := c.Compare(a, b) < 0; byRank != byCompare {
					t.Fatalf("block %v: cofacets %d, %d of cell %d: rank says less=%v, Compare says %v",
						c.Block, a, b, idx, byRank, byCompare)
				}
			}
		}
	}
}

// TestRankingOracle holds newRanking's radix sort to a comparison sort
// of the packed (OrderBits, local index) keys it replaced, on every
// palette and on the shapes whose digit histograms are degenerate: one
// vertex, a thin sheet, and samples that share their high bytes, so
// that every sample falls in one bucket of the passes over those bytes.
func TestRankingOracle(t *testing.T) {
	check := func(t *testing.T, dims grid.Dims, vol *grid.Volume) {
		t.Helper()
		r := newRanking(cube.New(dims, fullBlock(dims), vol), new(blockScratch))
		keys := make([]uint64, len(vol.Data))
		for i, v := range vol.Data {
			keys[i] = uint64(cube.OrderBits(v))<<32 | uint64(i)
		}
		slices.Sort(keys)
		for rk, k := range keys {
			v := int32(uint32(k))
			if r.byRank[rk] != v || r.rank[v] != int32(rk) {
				t.Fatalf("rank %d: byRank %d, rank[%d] = %d; want vertex %d at rank %d",
					rk, r.byRank[rk], v, r.rank[v], v, rk)
			}
		}
	}
	for _, dims := range []grid.Dims{{7, 7, 7}, {1, 1, 1}, {9, 2, 1}, {3, 3, 10}} {
		for p := 0; p < paletteCount; p++ {
			t.Run(fmt.Sprintf("%dx%dx%d-palette%d", dims[0], dims[1], dims[2], p), func(t *testing.T) {
				check(t, dims, paletteVolume(dims, p, int64(p+7)))
			})
		}
	}
	// Samples in [1, 1+2⁻¹⁵): every OrderBits shares its top three
	// bytes, and the constant volume shares all four.
	dims := grid.Dims{6, 5, 4}
	rng := rand.New(rand.NewSource(3))
	shared := grid.NewVolume(dims)
	for i := range shared.Data {
		shared.Data[i] = math.Float32frombits(0x3f800000 | uint32(rng.Intn(256)))
	}
	flat := grid.NewVolume(dims)
	for i := range flat.Data {
		flat.Data[i] = 0.5
	}
	for _, tc := range []struct {
		name string
		vol  *grid.Volume
	}{{"shared-high-bytes", shared}, {"constant", flat}} {
		t.Run(tc.name, func(t *testing.T) {
			hi := cube.OrderBits(tc.vol.Data[0]) >> 8
			for _, v := range tc.vol.Data {
				if cube.OrderBits(v)>>8 != hi {
					t.Fatalf("sample %v does not share the high bytes %#x", v, hi)
				}
			}
			check(t, dims, tc.vol)
		})
	}
}

func TestCellOrderOracle(t *testing.T) {
	whole := []grid.Dims{
		{7, 7, 7},  // cubic, odd
		{5, 8, 3},  // non-cubic
		{6, 1, 4},  // one sample thick
		{2, 7, 2},  // two samples thick in x and z
		{1, 1, 9},  // a line of vertices
		{1, 1, 1},  // a single vertex
		{9, 2, 1},  // a thin sheet
		{4, 5, 6},  // even and odd mixed
		{3, 3, 10}, // elongated
	}
	for _, dims := range whole {
		for p := 0; p < paletteCount; p++ {
			t.Run(fmt.Sprintf("whole-%dx%dx%d-palette%d", dims[0], dims[1], dims[2], p), func(t *testing.T) {
				vol := paletteVolume(dims, p, int64(p+1))
				checkCellOrder(t, cube.New(dims, fullBlock(dims), vol))
			})
		}
	}
	// Every block of a decomposition fine enough to have interior
	// blocks (touching no domain face) as well as boundary ones.
	dims := grid.Dims{13, 11, 9}
	dec, err := grid.Decompose(dims, 64)
	if err != nil {
		t.Fatal(err)
	}
	interior := 0
	for p := 0; p < paletteCount; p++ {
		vol := paletteVolume(dims, p, int64(10+p))
		for _, b := range dec.Blocks {
			if p == 0 && b.Lo[0] > 0 && b.Lo[1] > 0 && b.Lo[2] > 0 &&
				b.Hi[0] < dims[0]-1 && b.Hi[1] < dims[1]-1 && b.Hi[2] < dims[2]-1 {
				interior++
			}
			t.Run(fmt.Sprintf("decomposed-block%d-palette%d", b.ID, p), func(t *testing.T) {
				checkCellOrder(t, cube.New(dims, b, vol.SubVolume(b.Lo, b.Hi)))
			})
		}
	}
	if interior == 0 {
		t.Fatal("decomposition has no interior block")
	}
}

func FuzzCellOrder(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), uint8(paletteRandom), int64(1))
	f.Add(uint8(1), uint8(6), uint8(2), uint8(palettePlateau), int64(2))
	f.Add(uint8(4), uint8(4), uint8(1), uint8(paletteSigned), int64(3))
	f.Add(uint8(5), uint8(2), uint8(3), uint8(paletteNaN), int64(4))
	f.Fuzz(func(t *testing.T, nx, ny, nz, palette uint8, seed int64) {
		dims := grid.Dims{1 + int(nx)%6, 1 + int(ny)%6, 1 + int(nz)%6}
		vol := paletteVolume(dims, int(palette)%paletteCount, seed)
		checkCellOrder(t, cube.New(dims, fullBlock(dims), vol))
	})
}

// TestNaNGradient: NaN samples sort above +Inf under one canonical
// pattern, so a block holding them still gets a valid gradient, and the
// same one on every run.
func TestNaNGradient(t *testing.T) {
	dims := grid.Dims{9, 8, 7}
	vol := paletteVolume(dims, paletteNaN, 5)
	dec, err := grid.Decompose(dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*grid.Decomposition{nil, dec} {
		blk := fullBlock(dims)
		sub := vol
		if d != nil {
			blk = d.Blocks[1]
			sub = vol.SubVolume(blk.Lo, blk.Hi)
		}
		first := Compute(cube.New(dims, blk, sub), d)
		if err := first.Validate(); err != nil {
			t.Fatalf("NaN block: %v", err)
		}
		for run := 0; run < 3; run++ {
			again := Compute(cube.New(dims, blk, sub), d)
			if !slices.Equal(first.state, again.state) {
				t.Fatalf("NaN block: run %d computed a different gradient", run)
			}
		}
		if d == nil {
			counts := first.CriticalCounts()
			if euler := counts[0] - counts[1] + counts[2] - counts[3]; euler != 1 {
				t.Fatalf("NaN block: Euler %d (counts %v)", euler, counts)
			}
		}
	}
}
