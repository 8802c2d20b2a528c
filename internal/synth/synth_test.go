package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"parms/internal/grid"
)

func TestSinusoidRangeAndSymmetry(t *testing.T) {
	v := Sinusoid(33, 4)
	lo, hi := v.Range()
	if lo < -1 || hi > 1 {
		t.Fatalf("range [%v, %v] outside [-1, 1]", lo, hi)
	}
	if hi < 0.9 || lo > -0.9 {
		t.Fatalf("range [%v, %v] does not reach near ±1", lo, hi)
	}
}

func TestSinusoidComplexityGrowsFeatures(t *testing.T) {
	// Count strict local maxima of the sampled field (interior
	// vertices above their 6 neighbors): must grow with the paper's
	// complexity parameter.
	count := func(v *grid.Volume) int {
		n := 0
		d := v.Dims
		for z := 1; z < d[2]-1; z++ {
			for y := 1; y < d[1]-1; y++ {
				for x := 1; x < d[0]-1; x++ {
					c := v.At(x, y, z)
					if c > v.At(x-1, y, z) && c > v.At(x+1, y, z) &&
						c > v.At(x, y-1, z) && c > v.At(x, y+1, z) &&
						c > v.At(x, y, z-1) && c > v.At(x, y, z+1) {
						n++
					}
				}
			}
		}
		return n
	}
	c2 := count(Sinusoid(49, 2))
	c4 := count(Sinusoid(49, 4))
	c8 := count(Sinusoid(49, 8))
	if !(c2 < c4 && c4 < c8) {
		t.Fatalf("maxima counts %d, %d, %d not increasing with complexity", c2, c4, c8)
	}
}

func TestRampMonotone(t *testing.T) {
	v := Ramp(grid.Dims{5, 5, 5})
	if v.At(0, 0, 0) >= v.At(4, 4, 4) {
		t.Fatal("ramp not increasing")
	}
	if v.At(1, 0, 0) <= v.At(0, 0, 0) {
		t.Fatal("ramp not increasing in x")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(grid.Dims{8, 8, 8}, 42)
	b := Random(grid.Dims{8, 8, 8}, 42)
	c := Random(grid.Dims{8, 8, 8}, 43)
	same, diff := true, false
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
		if a.Data[i] != c.Data[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed gave different fields")
	}
	if !diff {
		t.Fatal("different seeds gave identical fields")
	}
}

func TestHydrogenStructure(t *testing.T) {
	v := Hydrogen(33)
	if v.DType != grid.U8 {
		t.Fatal("hydrogen proxy should be byte-valued")
	}
	lo, hi := v.Range()
	if lo != 0 || hi < 200 {
		t.Fatalf("range [%v, %v]", lo, hi)
	}
	// The center lobe dominates; the exterior is flat zero.
	c := 16
	if v.At(c, c, c) < 200 {
		t.Fatalf("center value %v too small", v.At(c, c, c))
	}
	if v.At(0, 0, 0) != 0 || v.At(32, 32, 32) != 0 {
		t.Fatal("corners not in the flat background")
	}
	// The two satellite lobes along z are local maxima regions.
	zHi := c + int(0.45*float64(c))
	if v.At(c, c, zHi) < 100 {
		t.Fatalf("upper lobe value %v too small", v.At(c, c, zHi))
	}
}

func TestJetEnvelope(t *testing.T) {
	v := Jet(grid.Dims{24, 28, 16}, 1)
	// The jet core (mid-y) must carry much larger values than the far
	// field.
	dims := v.Dims
	core, far := 0.0, 0.0
	for x := 0; x < dims[0]; x++ {
		core += float64(v.At(x, dims[1]/2, dims[2]/2))
		far += float64(v.At(x, 0, dims[2]/2))
	}
	if core < 10*far {
		t.Fatalf("jet envelope weak: core %v far %v", core, far)
	}
}

func TestRayleighTaylorStratification(t *testing.T) {
	v := RayleighTaylor(grid.Dims{24, 24, 24}, 7)
	dims := v.Dims
	bottom, top := 0.0, 0.0
	for y := 0; y < dims[1]; y++ {
		for x := 0; x < dims[0]; x++ {
			bottom += float64(v.At(x, y, 1))
			top += float64(v.At(x, y, dims[2]-2))
		}
	}
	n := float64(dims[0] * dims[1])
	if bottom/n > -0.5 {
		t.Fatalf("bottom density %v not light", bottom/n)
	}
	if top/n < 0.5 {
		t.Fatalf("top density %v not heavy", top/n)
	}
}

// TestRayleighTaylorGolden pins the generated samples bit for bit:
// sha256 over the little-endian float32 bits in x-fastest order.
func TestRayleighTaylorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden is pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		dims grid.Dims
		want string
	}{
		{grid.Dims{64, 64, 64}, "8790aa2122e90ba23ea709688f05a38144376a30f2d3203b597b36b27127615d"},
		{grid.Dims{17, 19, 23}, "040f90ff698025901e8c73851f00c86ca335e69d851f3851fa1d5367b48ba45b"},
	} {
		v := RayleighTaylor(tc.dims, 1)
		h := sha256.New()
		var b [4]byte
		for _, f := range v.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("RayleighTaylor(%v, 1): sha256 %s, want %s", tc.dims, got, tc.want)
		}
	}
}

func TestPorousSolidSigned(t *testing.T) {
	v := PorousSolid(24, 3)
	lo, hi := v.Range()
	if lo >= 0 {
		t.Fatalf("no interior (negative) region: lo=%v", lo)
	}
	if hi <= 0 {
		t.Fatalf("no exterior (positive) region: hi=%v", hi)
	}
}

func TestSinusoidDimsNonCubic(t *testing.T) {
	v := SinusoidDims(grid.Dims{12, 20, 8}, 2)
	if v.Dims != (grid.Dims{12, 20, 8}) {
		t.Fatalf("dims %v", v.Dims)
	}
}
