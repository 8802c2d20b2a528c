package mscomplex

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/synth"
)

// recycleBlock is one block of TestTraceScratchRecycled: its complex
// and decomposition (nil for a whole volume).
type recycleBlock struct {
	c   *cube.Complex
	dec *grid.Decomposition
}

// recycleBlocks returns a large block with boundary strata — block 5 of
// Sinusoid(97, 8) in 16 blocks, as BenchmarkTraceSmoothBlock — and a
// small 13³ noise volume.
func recycleBlocks(t *testing.T) []recycleBlock {
	t.Helper()
	vol := synth.Sinusoid(97, 8)
	dec, err := grid.Decompose(vol.Dims, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := dec.Blocks[5]
	noise := synth.Random(grid.Dims{13, 13, 13}, 5)
	return []recycleBlock{
		{cube.New(vol.Dims, blk, vol.SubVolume(blk.Lo, blk.Hi)), dec},
		{cube.New(noise.Dims, fullBlock(noise.Dims), noise), nil},
	}
}

// flatten returns the cells of every geometry of c.
func flatten(c *Complex) [][]grid.Addr {
	out := make([][]grid.Addr, len(c.Geoms))
	for g := range c.Geoms {
		out[g] = c.FlattenGeom(GeomID(g))
	}
	return out
}

// TestTraceScratchRecycled: the gradient's and the tracer's pooled
// scratch carry nothing from one block to the next. Blocks of different
// sizes are computed and traced in turn (large, small, large) on two
// goroutines at once, one through FromField and one through a width-2
// FromFieldPooled, and every trace must serialize to the bytes of the
// block's first trace. The complexes of the first traces must keep
// their geometry while later blocks are traced: the arena a width-1
// trace hands to its complex never goes back to the pool.
func TestTraceScratchRecycled(t *testing.T) {
	blocks := recycleBlocks(t)
	want := make([][]byte, len(blocks))
	first := make([]*Complex, len(blocks))
	geoms := make([][][]grid.Addr, len(blocks))
	for i, b := range blocks {
		first[i] = FromField(gradient.Compute(b.c, b.dec), b.dec, TraceOptions{}).Complex
		want[i] = first[i].Serialize()
		geoms[i] = flatten(first[i])
	}

	var wg sync.WaitGroup
	for _, pool := range []*kernel.Pool{nil, kernel.New(2)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range []int{0, 1, 0} {
				b := blocks[i]
				f := gradient.ComputePooled(b.c, b.dec, pool)
				got := FromFieldPooled(f, b.dec, TraceOptions{}, pool).Complex.Serialize()
				if !bytes.Equal(got, want[i]) {
					t.Errorf("width %d, block %d: serialized complex differs from the first trace", pool.Workers(), i)
				}
			}
		}()
	}
	wg.Wait()

	for i, c := range first {
		for g, cells := range flatten(c) {
			if !slices.Equal(cells, geoms[i][g]) {
				t.Fatalf("block %d: geometry %d of the first trace changed after later traces", i, g)
			}
		}
	}
}

// TestTraceEpochWraps: a tracer whose epoch counter reaches maxEpoch
// partway through a block clears its scratch and starts over, and
// traces the same complex as a fresh tracer.
func TestTraceEpochWraps(t *testing.T) {
	b := recycleBlocks(t)[1]
	f := gradient.Compute(b.c, b.dec)
	want := FromField(f, b.dec, TraceOptions{}).Complex.Serialize()

	ws := []*workspace{new(workspace)}
	// The first trace sizes the scratch and counts the starts that use it.
	trace(f, b.dec, TraceOptions{}, nil, ws)
	resets := ws[0].epoch
	if resets < 4 {
		t.Fatalf("only %d DFS starts: too few to cross the epoch limit midway", resets)
	}
	// The next trace reaches maxEpoch halfway, the one after it runs on
	// the cleared array.
	ws[0].epoch = maxEpoch - resets/2
	for run := 0; run < 2; run++ {
		got := trace(f, b.dec, TraceOptions{}, nil, ws).Complex.Serialize()
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d from epoch near the limit: serialized complex differs from a fresh tracer's", run)
		}
	}
	if want := 2*resets - resets/2; ws[0].epoch != want {
		t.Fatalf("epoch %d after two traces past the limit, want %d (restarted once)", ws[0].epoch, want)
	}
}
