package mscomplex

import (
	"fmt"
	"testing"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/synth"
)

func benchField(tb testing.TB, n int, features float64) *gradient.Field {
	tb.Helper()
	vol := synth.Sinusoid(n, features)
	block := grid.Block{Lo: [3]int{0, 0, 0}, Hi: [3]int{n - 1, n - 1, n - 1}}
	return gradient.Compute(cube.New(vol.Dims, block, vol), nil)
}

func BenchmarkTrace32(b *testing.B) {
	f := benchField(b, 33, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := FromField(f, nil, TraceOptions{})
		if res.Complex.NumAliveNodes() == 0 {
			b.Fatal("no nodes")
		}
	}
}

// BenchmarkTraceSmoothBlock traces one block of the pipeline's
// smooth-field case: Sinusoid(97, 8) cut into 16 blocks, block 5, with
// the decomposition — the block gradient.BenchmarkGradientSmoothBlock
// times. Unlike BenchmarkTrace32 it has boundary strata. The field is
// computed outside the timed loop.
func BenchmarkTraceSmoothBlock(b *testing.B) {
	vol := synth.Sinusoid(97, 8)
	dec, err := grid.Decompose(vol.Dims, 16)
	if err != nil {
		b.Fatal(err)
	}
	blk := dec.Blocks[5]
	f := gradient.Compute(cube.New(vol.Dims, blk, vol.SubVolume(blk.Lo, blk.Hi)), dec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := FromField(f, dec, TraceOptions{})
		if res.Complex.NumAliveNodes() == 0 {
			b.Fatal("no nodes")
		}
	}
}

// BenchmarkTracePooled measures the pointer-jumping tracer under the
// intra-rank worker pool at several widths. The traced arcs are
// byte-identical across widths; this tracks sweep and dispatch cost.
func BenchmarkTracePooled(b *testing.B) {
	f := benchField(b, 33, 4)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var pool *kernel.Pool
			if w > 1 {
				pool = kernel.New(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := FromFieldPooled(f, nil, TraceOptions{}, pool)
				if res.Kernel.Sweeps == 0 {
					b.Fatal("no sweeps")
				}
			}
		})
	}
}

func BenchmarkSimplify32(b *testing.B) {
	f := benchField(b, 33, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ms := FromField(f, nil, TraceOptions{}).Complex
		b.StartTimer()
		ms.Simplify(SimplifyOptions{Threshold: 0.02})
	}
}

// BenchmarkCompact32 compacts the complex BenchmarkSimplify32 leaves.
// Compact works in place, so every iteration traces and simplifies a
// fresh complex outside the timer.
func BenchmarkCompact32(b *testing.B) {
	f := benchField(b, 33, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ms := FromField(f, nil, TraceOptions{}).Complex
		ms.Simplify(SimplifyOptions{Threshold: 0.02})
		b.StartTimer()
		ms.Compact()
	}
}

func BenchmarkSerialize32(b *testing.B) {
	ms := FromField(benchField(b, 33, 4), nil, TraceOptions{}).Complex
	ms.Simplify(SimplifyOptions{Threshold: 0.02})
	compact := ms.Compact()
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		payload := compact.Serialize()
		bytes += int64(len(payload))
	}
	b.SetBytes(bytes / int64(b.N))
}

func BenchmarkDeserialize32(b *testing.B) {
	ms := FromField(benchField(b, 33, 4), nil, TraceOptions{}).Complex
	ms.Simplify(SimplifyOptions{Threshold: 0.02})
	payload := ms.Compact().Serialize()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Deserialize(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlue8Blocks decodes one block of an eight-block split and
// glues the other seven onto it straight from their payloads, as
// merge.Execute glues received members, then re-simplifies.
func BenchmarkGlue8Blocks(b *testing.B) {
	vol := synth.Sinusoid(33, 4)
	dec, err := grid.Decompose(vol.Dims, 8)
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, dec.NumBlocks())
	for i, blk := range dec.Blocks {
		sub := vol.SubVolume(blk.Lo, blk.Hi)
		f := gradient.Compute(cube.New(vol.Dims, blk, sub), dec)
		ms := FromField(f, dec, TraceOptions{}).Complex
		ms.Simplify(SimplifyOptions{Threshold: 0.02})
		payloads[i] = ms.Compact().Serialize()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, err := Deserialize(payloads[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range payloads[1:] {
			if err := root.GlueSerialized(p); err != nil {
				b.Fatal(err)
			}
		}
		root.Simplify(SimplifyOptions{Threshold: 0.02})
	}
}
