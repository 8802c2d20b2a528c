package mscomplex

import (
	"testing"

	"parms/internal/grid"
	"parms/internal/synth"
)

// snapshot captures the alive content of a complex for comparison.
func snapshot(c *Complex) (nodes map[grid.Addr]uint8, arcs map[[2]grid.Addr]int) {
	nodes = make(map[grid.Addr]uint8)
	arcs = make(map[[2]grid.Addr]int)
	for i := range c.Nodes {
		if c.Nodes[i].Alive {
			nodes[c.Nodes[i].Cell] = c.Nodes[i].Index
		}
	}
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if a.Alive {
			arcs[[2]grid.Addr{c.Nodes[a.Upper].Cell, c.Nodes[a.Lower].Cell}]++
		}
	}
	return
}

func snapshotsEqual(t *testing.T, label string, c1, c2 *Complex) {
	t.Helper()
	n1, a1 := snapshot(c1)
	n2, a2 := snapshot(c2)
	if len(n1) != len(n2) || len(a1) != len(a2) {
		t.Fatalf("%s: %d/%d nodes, %d/%d arc classes", label, len(n1), len(n2), len(a1), len(a2))
	}
	for cell, idx := range n1 {
		if n2[cell] != idx {
			t.Fatalf("%s: node %d differs", label, cell)
		}
	}
	for pair, mult := range a1 {
		if a2[pair] != mult {
			t.Fatalf("%s: arc %v multiplicity %d vs %d", label, pair, mult, a2[pair])
		}
	}
}

func TestRefineRestoresOriginal(t *testing.T) {
	vol := synth.Random(grid.Dims{9, 9, 9}, 61)
	original := traceVolume(t, vol)
	working := traceVolume(t, vol)

	stats := working.Simplify(SimplifyOptions{Threshold: 0.3})
	if stats.Cancellations == 0 {
		t.Fatal("nothing cancelled")
	}
	if working.Resolution() != stats.Cancellations {
		t.Fatalf("resolution %d after %d cancellations", working.Resolution(), stats.Cancellations)
	}
	// Walk all the way back to the finest level.
	if got := working.SetResolution(0); got != 0 {
		t.Fatalf("SetResolution(0) reached %d", got)
	}
	snapshotsEqual(t, "fully refined", original, working)
	if err := working.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReapplyRestoresSimplified(t *testing.T) {
	vol := synth.Random(grid.Dims{9, 9, 9}, 67)
	working := traceVolume(t, vol)
	working.Simplify(SimplifyOptions{Threshold: 0.3})

	reference := traceVolume(t, vol)
	reference.Simplify(SimplifyOptions{Threshold: 0.3})

	working.SetResolution(0)
	working.SetResolution(working.MaxResolution())
	snapshotsEqual(t, "re-applied", reference, working)
	if err := working.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResolutionWalkIsConsistent(t *testing.T) {
	vol := synth.Random(grid.Dims{9, 9, 9}, 71)
	ms := traceVolume(t, vol)
	before := ms.NumAliveNodes()
	ms.Simplify(SimplifyOptions{Threshold: 0.25})
	max := ms.MaxResolution()
	// Each level has exactly two more nodes than the next.
	for level := max; level >= 0; level-- {
		ms.SetResolution(level)
		want := before - 2*level
		if got := ms.NumAliveNodes(); got != want {
			t.Fatalf("level %d: %d nodes, want %d", level, got, want)
		}
		if ms.EulerCharacteristic() != 1 {
			t.Fatalf("level %d: Euler %d", level, ms.EulerCharacteristic())
		}
	}
	// And back down again.
	ms.SetResolution(max)
	if ms.NumAliveNodes() != before-2*max {
		t.Fatal("round trip lost nodes")
	}
}

func TestRefineUnavailableAfterCompact(t *testing.T) {
	ms := traceVolume(t, synth.Random(grid.Dims{8, 8, 8}, 73))
	ms.Simplify(SimplifyOptions{Threshold: 0.3})
	compact := ms.Compact()
	if compact != ms {
		t.Fatal("Compact did not compact its receiver")
	}
	if compact.Refine() {
		t.Fatal("Refine succeeded on a compacted complex")
	}
	if compact.MaxResolution() != 0 {
		t.Fatal("compacted complex claims refinable levels")
	}
	// Compact consumed the receiver's finer levels.
	if ms.Refine() {
		t.Fatal("the receiver kept its finer levels")
	}
}

func TestRefineThenSimplifyFurther(t *testing.T) {
	// Interleaving navigation and further simplification: refine to the
	// finest level, then simplify deeper than before; the result equals
	// a direct deep simplification.
	vol := synth.Random(grid.Dims{9, 9, 9}, 79)
	working := traceVolume(t, vol)
	working.Simplify(SimplifyOptions{Threshold: 0.1})
	working.SetResolution(0)
	// The undo history beyond the current level is invalidated by a new
	// Simplify; navigate first, then extend.
	working.Simplify(SimplifyOptions{Threshold: 0.4})

	direct := traceVolume(t, vol)
	direct.Simplify(SimplifyOptions{Threshold: 0.4})
	sn, sa := working.AliveCounts()
	dn, da := direct.AliveCounts()
	if sn != dn || sa != da {
		t.Fatalf("refine-then-deepen %v/%d, direct %v/%d", sn, sa, dn, da)
	}
}

func TestSimplifyInvalidatesRedo(t *testing.T) {
	ms := traceVolume(t, synth.Random(grid.Dims{9, 9, 9}, 83))
	ms.Simplify(SimplifyOptions{Threshold: 0.3})
	deep := ms.MaxResolution()
	ms.SetResolution(0)
	ms.Simplify(SimplifyOptions{Threshold: 0.05})
	// The old redo history must be gone; only the new cancellations
	// remain navigable.
	if ms.MaxResolution() > deep {
		t.Fatalf("stale redo records retained: max resolution %d", ms.MaxResolution())
	}
	if ms.Resolution() != ms.MaxResolution() {
		t.Fatalf("resolution %d != max %d after simplify", ms.Resolution(), ms.MaxResolution())
	}
	// Navigation through the fresh history still works and validates.
	ms.SetResolution(0)
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
}
