package kernel

import (
	"sync/atomic"
	"testing"
)

func TestNilPoolIsSequential(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	sum := 0
	lastChunk := -1
	p.Run(10, 3, func(worker, chunk, lo, hi int) {
		if worker != 0 {
			t.Fatalf("nil pool ran on worker %d", worker)
		}
		if chunk != lastChunk+1 {
			t.Fatalf("chunks out of order: %d after %d", chunk, lastChunk)
		}
		lastChunk = chunk
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
	if lastChunk != 3 {
		t.Fatalf("saw %d chunks, want 4", lastChunk+1)
	}
}

func TestChunkBoundariesIndependentOfWorkers(t *testing.T) {
	const n, grain = 100_003, 1024
	want := Chunks(n, grain)
	for _, w := range []int{1, 2, 3, 8, 64} {
		p := New(w)
		bounds := make([][2]int, want)
		var seen atomic.Int64
		p.Run(n, grain, func(worker, chunk, lo, hi int) {
			bounds[chunk] = [2]int{lo, hi}
			seen.Add(1)
		})
		if int(seen.Load()) != want {
			t.Fatalf("workers=%d: ran %d chunks, want %d", w, seen.Load(), want)
		}
		for c, b := range bounds {
			lo, hi := c*grain, (c+1)*grain
			if hi > n {
				hi = n
			}
			if b[0] != lo || b[1] != hi {
				t.Fatalf("workers=%d chunk %d = %v, want [%d,%d)", w, c, b, lo, hi)
			}
		}
	}
}

func TestDisjointWritesCoverRange(t *testing.T) {
	const n = 50_000
	for _, w := range []int{1, 4, 16} {
		out := make([]int32, n)
		New(w).Run(n, 777, func(worker, chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = int32(i * 2)
			}
		})
		for i, v := range out {
			if v != int32(i*2) {
				t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
			}
		}
	}
}

func TestPerChunkReductionDeterministic(t *testing.T) {
	const n, grain = 33_333, 500
	reduce := func(w int) int64 {
		partials := make([]int64, Chunks(n, grain))
		New(w).Run(n, grain, func(worker, chunk, lo, hi int) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i % 7)
			}
			partials[chunk] = s
		})
		var total int64
		for _, p := range partials {
			total += p
		}
		return total
	}
	want := reduce(1)
	for _, w := range []int{2, 5, 32} {
		if got := reduce(w); got != want {
			t.Fatalf("workers=%d total %d, want %d", w, got, want)
		}
	}
}

func TestEmptyAndClampedWidths(t *testing.T) {
	ran := false
	New(-3).Run(0, 10, func(worker, chunk, lo, hi int) { ran = true })
	if ran {
		t.Fatal("Run executed body for n=0")
	}
	if got := New(0).Workers(); got != 1 {
		t.Fatalf("New(0).Workers() = %d, want 1", got)
	}
	if got := Chunks(0, 5); got != 0 {
		t.Fatalf("Chunks(0,5) = %d, want 0", got)
	}
	if got := Chunks(10, 0); got != 1 {
		t.Fatalf("Chunks(10,0) = %d, want 1 (default grain)", got)
	}
}
