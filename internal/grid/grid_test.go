package grid

import (
	"testing"
	"testing/quick"
)

func TestDTypeRoundTrip(t *testing.T) {
	for _, s := range []string{"u8", "f32", "f64"} {
		dt, err := ParseDType(s)
		if err != nil {
			t.Fatal(err)
		}
		if dt.String() != s {
			t.Fatalf("%s -> %s", s, dt.String())
		}
	}
	if _, err := ParseDType("i16"); err == nil {
		t.Fatal("accepted unknown dtype")
	}
	if U8.Size() != 1 || F32.Size() != 4 || F64.Size() != 8 {
		t.Fatal("wrong sample sizes")
	}
}

func TestVolumeBytesRoundTrip(t *testing.T) {
	for _, dt := range []DType{U8, F32, F64} {
		v := NewVolume(Dims{3, 4, 5})
		v.DType = dt
		for i := range v.Data {
			v.Data[i] = float32(i % 200)
		}
		raw := v.Bytes()
		if len(raw) != dt.Size()*3*4*5 {
			t.Fatalf("%v: raw length %d", dt, len(raw))
		}
		back, err := DecodeSamples(raw, dt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v.Data {
			if back[i] != v.Data[i] {
				t.Fatalf("%v: sample %d: %v != %v", dt, i, back[i], v.Data[i])
			}
		}
	}
}

func TestSubVolume(t *testing.T) {
	v := NewVolume(Dims{6, 5, 4})
	for z := 0; z < 4; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 6; x++ {
				v.Set(x, y, z, float32(100*x+10*y+z))
			}
		}
	}
	sub := v.SubVolume([3]int{1, 2, 1}, [3]int{4, 4, 3})
	if sub.Dims != (Dims{4, 3, 3}) {
		t.Fatalf("sub dims %v", sub.Dims)
	}
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 4; x++ {
				want := float32(100*(x+1) + 10*(y+2) + (z + 1))
				if got := sub.At(x, y, z); got != want {
					t.Fatalf("sub(%d,%d,%d) = %v want %v", x, y, z, got, want)
				}
			}
		}
	}
}

func TestVolumeRange(t *testing.T) {
	v := NewVolume(Dims{2, 2, 2})
	copy(v.Data, []float32{3, -1, 4, 1, 5, -9, 2, 6})
	lo, hi := v.Range()
	if lo != -9 || hi != 6 {
		t.Fatalf("range [%v, %v]", lo, hi)
	}
}

// TestDecomposeProperties: any decomposition covers every vertex, blocks
// overlap in exactly the shared layers, and block count is as requested.
func TestDecomposeProperties(t *testing.T) {
	f := func(dx, dy, dz uint8, nb uint8) bool {
		dims := Dims{4 + int(dx)%29, 4 + int(dy)%29, 4 + int(dz)%29}
		nblocks := 1 + int(nb)%16
		dec, err := Decompose(dims, nblocks)
		if err != nil {
			// Tiny domains can legitimately refuse very high block
			// counts; that is not a property violation.
			return true
		}
		if dec.NumBlocks() != nblocks {
			return false
		}
		// Every vertex covered at least once; interior vertices of one
		// block covered exactly once.
		covered := make([]int, dims.Verts())
		for _, b := range dec.Blocks {
			if b.Lo[0] < 0 || b.Hi[0] >= dims[0] || b.Lo[1] < 0 || b.Hi[1] >= dims[1] ||
				b.Lo[2] < 0 || b.Hi[2] >= dims[2] {
				return false
			}
			for ax := 0; ax < 3; ax++ {
				if b.Hi[ax] <= b.Lo[ax] {
					return false // degenerate block
				}
			}
			for z := b.Lo[2]; z <= b.Hi[2]; z++ {
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					for x := b.Lo[0]; x <= b.Hi[0]; x++ {
						covered[int64(x)+int64(y)*int64(dims[0])+int64(z)*int64(dims[0])*int64(dims[1])]++
					}
				}
			}
		}
		for _, c := range covered {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeSharedLayer(t *testing.T) {
	dims := Dims{16, 16, 16}
	dec, err := Decompose(dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := dec.Blocks[0], dec.Blocks[1]
	// The bisection splits x (longest tie → x) at 8: block 0 ends at
	// the plane block 1 starts at.
	if a.Hi[0] != b.Lo[0] {
		t.Fatalf("blocks do not share a layer: %v %v", a, b)
	}
	if a.Lo[0] != 0 || b.Hi[0] != 15 {
		t.Fatalf("blocks do not span the domain: %v %v", a, b)
	}
}

func TestDecomposePowersOfTwoBalanced(t *testing.T) {
	dims := Dims{64, 64, 64}
	for _, nb := range []int{2, 4, 8, 16, 32, 64} {
		dec, err := Decompose(dims, nb)
		if err != nil {
			t.Fatal(err)
		}
		minV, maxV := int64(1<<62), int64(0)
		for _, b := range dec.Blocks {
			v := b.Verts()
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		if float64(maxV) > 1.6*float64(minV) {
			t.Fatalf("nb=%d: unbalanced blocks %d..%d vertices", nb, minV, maxV)
		}
	}
}

func TestOwnersOfRefined(t *testing.T) {
	dims := Dims{8, 8, 8}
	dec, err := Decompose(dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The center vertex (shared corner) belongs to many blocks.
	b0 := dec.Blocks[0]
	cx, cy, cz := 2*b0.Hi[0], 2*b0.Hi[1], 2*b0.Hi[2]
	owners := dec.OwnersOfRefined(0, cx, cy, cz)
	if len(owners) != 8 {
		t.Fatalf("center corner owned by %d blocks, want 8", len(owners))
	}
	if !dec.SharedBoundary(0, cx, cy, cz) {
		t.Fatal("center corner not flagged as shared boundary")
	}
	// A strictly interior cell of block 0 has one owner.
	owners = dec.OwnersOfRefined(0, 1, 1, 1)
	if len(owners) != 1 || owners[0] != 0 {
		t.Fatalf("interior cell owners %v", owners)
	}
}

// assignBlocks is the paper's block-cyclic layout written out directly:
// the block IDs rank owns when nblocks are dealt round-robin over procs
// ranks. It is the reference the OwnerTable tests check against; code
// outside the tests resolves ownership through OwnerTable, which starts
// from this layout and follows migrations.
func assignBlocks(nblocks, procs, rank int) []int {
	var out []int
	for b := rank; b < nblocks; b += procs {
		out = append(out, b)
	}
	return out
}

// rankOfBlock is the owner of block under assignBlocks.
func rankOfBlock(block, procs int) int { return block % procs }

func TestAssignBlocksRoundRobin(t *testing.T) {
	got := assignBlocks(10, 4, 1)
	want := []int{1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("assign %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("assign %v want %v", got, want)
		}
	}
	// Every block assigned to exactly one rank.
	seen := make(map[int]bool)
	for rank := 0; rank < 4; rank++ {
		for _, b := range assignBlocks(10, 4, rank) {
			if seen[b] {
				t.Fatalf("block %d assigned twice", b)
			}
			seen[b] = true
			if rankOfBlock(b, 4) != rank {
				t.Fatalf("rankOfBlock(%d) inconsistent", b)
			}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("only %d blocks assigned", len(seen))
	}
}

func TestAddrSpaceRoundTrip(t *testing.T) {
	space := NewAddrSpace(Dims{10, 12, 14})
	f := func(x, y, z uint8) bool {
		cx := int(x) % space.RX
		cy := int(y) % space.RY
		cz := int(z) % space.RZ
		gx, gy, gz := space.Decode(space.Encode(cx, cy, cz))
		return gx == cx && gy == cy && gz == cz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrDim(t *testing.T) {
	space := NewAddrSpace(Dims{5, 5, 5})
	if d := space.Dim(space.Encode(0, 0, 0)); d != 0 {
		t.Fatalf("vertex dim %d", d)
	}
	if d := space.Dim(space.Encode(1, 0, 0)); d != 1 {
		t.Fatalf("edge dim %d", d)
	}
	if d := space.Dim(space.Encode(1, 1, 0)); d != 2 {
		t.Fatalf("quad dim %d", d)
	}
	if d := space.Dim(space.Encode(1, 1, 1)); d != 3 {
		t.Fatalf("voxel dim %d", d)
	}
}

func TestVertexID(t *testing.T) {
	space := NewAddrSpace(Dims{4, 4, 4})
	// Vertex (1, 2, 3) has id 1 + 2*4 + 3*16 = 57.
	if id := space.VertexID(space.Encode(2, 4, 6)); id != 57 {
		t.Fatalf("vertex id %d, want 57", id)
	}
}
