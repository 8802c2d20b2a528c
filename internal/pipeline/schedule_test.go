package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/pario"
	"parms/internal/synth"
)

// TestScheduleIndependence pins that the output does not depend on how
// the host schedules the rank goroutines: one rank at a time
// (MaxParallel 1) and every rank at once (unbounded) must write a
// byte-identical output file and report the same node, arc and
// communication totals.
func TestScheduleIndependence(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	run := func(procs, maxParallel int) ([]byte, *Result) {
		c, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: maxParallel})
		if err != nil {
			t.Fatal(err)
		}
		pario.WriteVolume(c.FS(), "vol", vol)
		res, err := Run(c, Params{
			File: "vol", Dims: vol.Dims, DType: grid.F32,
			Radices: merge.Full(procs).Radices, Persistence: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.FS().Get("vol.msc")
		if err != nil {
			t.Fatalf("read output: %v", err)
		}
		return out, res
	}
	for _, procs := range []int{8, 64} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			serOut, ser := run(procs, 1)
			parOut, par := run(procs, 0)
			if !bytes.Equal(serOut, parOut) {
				t.Errorf("output file differs: %d bytes at MaxParallel 1, %d unbounded",
					len(serOut), len(parOut))
			}
			if ser.Nodes != par.Nodes {
				t.Errorf("nodes %v at MaxParallel 1, %v unbounded", ser.Nodes, par.Nodes)
			}
			if ser.Arcs != par.Arcs {
				t.Errorf("arcs %d at MaxParallel 1, %d unbounded", ser.Arcs, par.Arcs)
			}
			if ser.BytesSent != par.BytesSent {
				t.Errorf("bytes sent %d at MaxParallel 1, %d unbounded", ser.BytesSent, par.BytesSent)
			}
		})
	}
}
