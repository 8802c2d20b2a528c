package gradient

import (
	"fmt"
	"testing"

	"parms/internal/cube"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/synth"
)

// BenchmarkAblationGreedy times the paper's greedy steepest-descent
// construction on one whole 33³ block. Volume and complex construction
// are hoisted out of the timed loop so b.N iterations measure the
// algorithm alone; the criticals metric pins what it computes.
func BenchmarkAblationGreedy(b *testing.B) {
	vol := synth.Sinusoid(33, 4)
	block := grid.Block{Lo: [3]int{0, 0, 0}, Hi: [3]int{32, 32, 32}}
	c := cube.New(vol.Dims, block, vol)
	b.ReportAllocs()
	b.ResetTimer()
	var counts [4]int
	for i := 0; i < b.N; i++ {
		f := Compute(c, nil)
		counts = f.CriticalCounts()
	}
	b.ReportMetric(float64(counts[0]+counts[1]+counts[2]+counts[3]), "criticals")
}

// BenchmarkGradientSmoothBlock times one block of the pipeline's
// smooth-field case: Sinusoid(97, 8) cut into 16 blocks, block 5, with
// the shared-face restriction on. Decomposition, sub-volume and complex
// are built outside the timed loop.
func BenchmarkGradientSmoothBlock(b *testing.B) {
	vol := synth.Sinusoid(97, 8)
	dec, err := grid.Decompose(vol.Dims, 16)
	if err != nil {
		b.Fatal(err)
	}
	blk := dec.Blocks[5]
	c := cube.New(vol.Dims, blk, vol.SubVolume(blk.Lo, blk.Hi))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(c, dec)
	}
}

// BenchmarkAblationBoundaryRestriction measures the cost the paper's
// shared-face pairing restriction adds to the gradient stage (stratum
// classification plus restricted candidate sets), by computing the same
// block with and without a decomposition.
func BenchmarkAblationBoundaryRestriction(b *testing.B) {
	vol := synth.Sinusoid(33, 4)
	dec, err := grid.Decompose(vol.Dims, 8)
	if err != nil {
		b.Fatal(err)
	}
	blk := dec.Blocks[0]
	sub := vol.SubVolume(blk.Lo, blk.Hi)
	c := cube.New(vol.Dims, blk, sub)
	b.Run("restricted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Compute(c, dec)
		}
	})
	b.Run("unrestricted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Compute(c, nil)
		}
	})
}

// BenchmarkComputePooled measures the SoA gradient stage under the
// intra-rank worker pool at several widths. Output is byte-identical
// across widths (the golden equivalence tests pin that); this benchmark
// tracks the wall cost of the chunked dispatch itself.
func BenchmarkComputePooled(b *testing.B) {
	vol := synth.Sinusoid(33, 4)
	block := grid.Block{Lo: [3]int{0, 0, 0}, Hi: [3]int{32, 32, 32}}
	c := cube.New(vol.Dims, block, vol)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var pool *kernel.Pool
			if w > 1 {
				pool = kernel.New(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ComputePooled(c, nil, pool)
			}
		})
	}
}
