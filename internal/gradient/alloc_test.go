package gradient

import (
	"runtime"
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/synth"
)

// mallocsAfterGC returns the most heap allocations one call of f made
// over runs calls, each made right after two GCs have emptied every
// sync.Pool, so a pool miss is inside the count.
func mallocsAfterGC(runs int, f func()) uint64 {
	var most uint64
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		most = max(most, after.Mallocs-before.Mallocs)
	}
	return most
}

// TestComputeAllocsBounded: the gradient of one block allocates its
// arrays and scratch once, however many cells the block has, on one
// worker and on two. The block is BenchmarkGradientSmoothBlock's; its
// vertex count spans several kernel chunks, so at width 2
// successorsKernel runs chunked on two goroutines. A per-element
// allocation in a kernel loop adds one allocation per vertex.
func TestComputeAllocsBounded(t *testing.T) {
	vol := synth.Sinusoid(97, 8)
	dec, err := grid.Decompose(vol.Dims, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := dec.Blocks[5]
	c := cube.New(vol.Dims, blk, vol.SubVolume(blk.Lo, blk.Hi))
	for _, tc := range []struct {
		workers int
		limit   uint64
	}{
		// Measured: 21–22 allocations after a GC, 27–33 under -race.
		{1, 40},
		// Measured: 27–33 after a GC (the goroutines included), 33–36
		// under -race.
		{2, 52},
	} {
		pool := kernel.New(tc.workers)
		var f *Field
		allocs := mallocsAfterGC(5, func() { f = ComputePooled(c, dec, pool) })
		if chunks := kernel.Chunks(f.VertexCount(), kernel.DefaultGrain); chunks < 2*tc.workers {
			t.Fatalf("%d vertices make %d kernel chunks: too few to run %d workers", f.VertexCount(), chunks, tc.workers)
		}
		if allocs > tc.limit {
			t.Errorf("width %d: Compute made %d allocations, want at most %d", tc.workers, allocs, tc.limit)
		}
	}
}
