package serial

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/mscomplex"
	"parms/internal/synth"
)

// These tests pin the worker-pool equivalence contract: the chunked
// kernels must produce byte-identical gradient state, traced arcs, and
// sweep statistics at every pool width.

// equivalenceWidths are the pool widths compared, sequential first.
var equivalenceWidths = []int{1, 4, 8}

// pooledHashes computes the full single-block pipeline stage under one
// pool width and returns the gradient-state and serialized-complex
// hashes plus the sweep count.
func pooledHashes(t *testing.T, vol *grid.Volume, workers int) (string, string, int) {
	t.Helper()
	block := grid.Block{
		ID: 0,
		Lo: [3]int{0, 0, 0},
		Hi: [3]int{vol.Dims[0] - 1, vol.Dims[1] - 1, vol.Dims[2] - 1},
	}
	var pool *kernel.Pool
	if workers > 1 {
		pool = kernel.New(workers)
	}
	f := gradient.ComputePooled(cube.New(vol.Dims, block, vol), nil, pool)
	state := make([]byte, f.C.NumCells())
	for i := range state {
		state[i] = f.StateByte(i)
	}
	gh := sha256.Sum256(state)
	res := mscomplex.FromFieldPooled(f, nil, mscomplex.TraceOptions{}, pool)
	mh := sha256.Sum256(res.Complex.Serialize())
	return hex.EncodeToString(gh[:]), hex.EncodeToString(mh[:]), res.Kernel.Sweeps
}

func testWorkerEquivalence(t *testing.T, name string, vol *grid.Volume) {
	widths := equivalenceWidths
	baseGrad, baseMS, baseSweeps := pooledHashes(t, vol, widths[0])
	for _, w := range widths[1:] {
		grad, ms, sweeps := pooledHashes(t, vol, w)
		if grad != baseGrad {
			t.Errorf("%s: gradient state differs between workers=%d and workers=%d:\n %s\n %s",
				name, widths[0], w, baseGrad, grad)
		}
		if ms != baseMS {
			t.Errorf("%s: traced complex differs between workers=%d and workers=%d:\n %s\n %s",
				name, widths[0], w, baseMS, ms)
		}
		if sweeps != baseSweeps {
			t.Errorf("%s: sweep count differs between workers=%d (%d) and workers=%d (%d); convergence depth must be schedule-independent",
				name, widths[0], baseSweeps, w, sweeps)
		}
	}
}

func TestWorkerEquivalenceSinusoid(t *testing.T) {
	testWorkerEquivalence(t, "sinusoid", synth.Sinusoid(33, 4))
}

func TestWorkerEquivalenceTorus(t *testing.T) {
	testWorkerEquivalence(t, "torus", synth.Torus(33))
}

// TestSweepCountDeterministic pins that the pointer-jumping convergence
// depth is a pure function of the input field: identical across repeat
// runs and across every pool width, because sweeps are synchronous
// (double-buffered) and the write count reduces over chunks in index
// order.
func TestSweepCountDeterministic(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	block := grid.Block{ID: 0, Lo: [3]int{0, 0, 0}, Hi: [3]int{32, 32, 32}}

	run := func(workers int) mscomplex.KernelStats {
		var pool *kernel.Pool
		if workers > 1 {
			pool = kernel.New(workers)
		}
		f := gradient.ComputePooled(cube.New(vol.Dims, block, vol), nil, pool)
		return mscomplex.FromFieldPooled(f, nil, mscomplex.TraceOptions{}, pool).Kernel
	}

	base := run(1)
	if base.Sweeps < 2 {
		t.Fatalf("suspiciously shallow convergence: %d sweeps", base.Sweeps)
	}
	if n := len(base.SweepWrites); n != base.Sweeps {
		t.Fatalf("sweep histogram has %d entries for %d sweeps", n, base.Sweeps)
	}
	if last := base.SweepWrites[base.Sweeps-1]; last != 0 {
		t.Fatalf("final sweep wrote %d; convergence means a zero-write sweep", last)
	}
	for run2, workers := range map[string]int{"repeat": 1, "workers=4": 4, "workers=8": 8} {
		got := run(workers)
		if got.Sweeps != base.Sweeps {
			t.Errorf("%s: sweep count %d, want %d", run2, got.Sweeps, base.Sweeps)
		}
		for i, w := range got.SweepWrites {
			if w != base.SweepWrites[i] {
				t.Errorf("%s: sweep %d wrote %d, want %d", run2, i, w, base.SweepWrites[i])
			}
		}
	}
}
