package mscomplex

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"parms/internal/grid"
	"parms/internal/synth"
)

// TestSimplifyStagedEqualsDirect: persistence simplification is a
// monotone hierarchy — simplifying to t1 and then to t2 > t1 must land
// on exactly the complex that simplifying straight to t2 produces,
// because the cancellation sequence is ordered by persistence either
// way.
func TestSimplifyStagedEqualsDirect(t *testing.T) {
	vol := synth.Random(grid.Dims{9, 9, 9}, 17)

	staged := traceVolume(t, vol)
	staged.Simplify(SimplifyOptions{Threshold: 0.1})
	staged.Simplify(SimplifyOptions{Threshold: 0.3})

	direct := traceVolume(t, vol)
	direct.Simplify(SimplifyOptions{Threshold: 0.3})

	sn, sa := staged.AliveCounts()
	dn, da := direct.AliveCounts()
	if sn != dn || sa != da {
		t.Fatalf("staged %v/%d, direct %v/%d", sn, sa, dn, da)
	}
	for i := range direct.Nodes {
		n := &direct.Nodes[i]
		if !n.Alive {
			continue
		}
		id, ok := staged.NodeAt(n.Cell)
		if !ok || !staged.Nodes[id].Alive {
			t.Fatalf("direct node at cell %d missing in staged result", n.Cell)
		}
	}
	// The combined hierarchies record the same cancellations.
	if len(staged.Hierarchy) != len(direct.Hierarchy) {
		t.Fatalf("hierarchy lengths %d vs %d", len(staged.Hierarchy), len(direct.Hierarchy))
	}
	for i := range direct.Hierarchy {
		if staged.Hierarchy[i] != direct.Hierarchy[i] {
			t.Fatalf("hierarchy entry %d differs: %+v vs %+v",
				i, staged.Hierarchy[i], direct.Hierarchy[i])
		}
	}
}

// TestSimplifyIdempotent: re-running Simplify with the same threshold
// must do nothing.
func TestSimplifyIdempotent(t *testing.T) {
	ms := traceVolume(t, synth.Random(grid.Dims{9, 9, 9}, 23))
	ms.Simplify(SimplifyOptions{Threshold: 0.2})
	before, beforeArcs := ms.AliveCounts()
	stats := ms.Simplify(SimplifyOptions{Threshold: 0.2})
	if stats.Cancellations != 0 {
		t.Fatalf("second simplify cancelled %d pairs", stats.Cancellations)
	}
	after, afterArcs := ms.AliveCounts()
	if before != after || beforeArcs != afterArcs {
		t.Fatal("idempotence violated")
	}
}

// TestCancellationNeverTouchesBoundary: even at an effectively infinite
// threshold, every cancellation a block records must involve only
// interior cells — cells owned by that block alone. The recorded
// hierarchy lets us audit this exactly.
func TestCancellationNeverTouchesBoundary(t *testing.T) {
	vol := synth.Random(grid.Dims{12, 10, 8}, 31)
	dec, blocks := computeBlocks(t, vol, 4, 1e9)
	space := grid.NewAddrSpace(vol.Dims)
	audited := 0
	for bi, ms := range blocks {
		for _, h := range ms.Hierarchy {
			for _, cell := range []grid.Addr{h.UpperCell, h.LowerCell} {
				x, y, z := space.Decode(cell)
				if owners := dec.OwnersOfRefined(bi, x, y, z); len(owners) > 1 {
					t.Fatalf("block %d cancelled boundary cell %d (owned by %v)", bi, cell, owners)
				}
				audited++
			}
		}
	}
	if audited == 0 {
		t.Fatal("no cancellations recorded; the audit checked nothing")
	}
	// Structural sanity after heavy surgery: alive arcs never reference
	// dead nodes.
	for _, ms := range blocks {
		for i := range ms.Arcs {
			a := &ms.Arcs[i]
			if a.Alive && (!ms.Nodes[a.Upper].Alive || !ms.Nodes[a.Lower].Alive) {
				t.Fatal("alive arc with dead endpoint")
			}
		}
	}
}

// TestDeserializeFuzz: random truncations and corruptions of a valid
// payload must return errors, never panic or produce an invalid
// complex.
func TestDeserializeFuzz(t *testing.T) {
	ms := traceVolume(t, synth.Sinusoid(13, 2))
	ms.Simplify(SimplifyOptions{Threshold: 0.1})
	payload := ms.Compact().Serialize()
	rng := rand.New(rand.NewSource(5))

	for trial := 0; trial < 200; trial++ {
		mutated := mutatePayload(rng, payload, trial)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: Deserialize panicked: %v", trial, p)
				}
			}()
			back, err := Deserialize(mutated)
			if err == nil && back != nil {
				// A lucky mutation may still parse (e.g. flipped float
				// bits); the result must at least be structurally valid.
				if vErr := back.Validate(); vErr != nil {
					t.Fatalf("trial %d: corrupted payload parsed into invalid complex: %v", trial, vErr)
				}
			}
		}()
	}

	// A count beyond the payload is an error before anything of its
	// size is allocated.
	for _, h := range hostileCounts(t, payload) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Deserialize(h.payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s beyond the payload: accepted", h.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(payload))+1<<16 {
			t.Fatalf("%s beyond the payload: allocated %d bytes for a %d-byte payload", h.name, alloc, len(payload))
		}
	}
}

// mutatePayload returns a copy of payload truncated (trial%3 == 0),
// with four bytes flipped (1) or truncated with one byte flipped (2).
func mutatePayload(rng *rand.Rand, payload []byte, trial int) []byte {
	mutated := append([]byte(nil), payload...)
	switch trial % 3 {
	case 0:
		mutated = mutated[:rng.Intn(len(mutated))]
	case 1:
		for k := 0; k < 4; k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
	case 2:
		mutated = mutated[:1+rng.Intn(len(mutated)-1)]
		mutated[rng.Intn(len(mutated))] ^= 0xff
	}
	return mutated
}

// glueOrKeep glues p onto root and fails t unless the glue either
// leaves a root that passes Validate or is rejected with the root's
// bytes unchanged. It reports the rejection.
func glueOrKeep(t *testing.T, root *Complex, p []byte) (rejected bool) {
	t.Helper()
	before := root.Serialize()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("GlueSerialized panicked: %v", r)
		}
	}()
	if err := root.GlueSerialized(p); err != nil {
		if !bytes.Equal(root.Serialize(), before) {
			t.Fatalf("payload rejected (%v), but the root changed", err)
		}
		return true
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("payload glued into an invalid root: %v", err)
	}
	return false
}

// repeatCell returns a copy of payload whose second node has the first
// node's cell.
func repeatCell(t *testing.T, payload []byte) []byte {
	t.Helper()
	r := reader{buf: payload}
	r.u32()
	r.skip(4 * int(r.u32()))
	if r.u32() < 2 {
		t.Fatal("payload has fewer than two nodes")
	}
	first := r.off
	r.skip(8 + 1 + 4 + 8)
	r.skip(4 * int(r.u16()))
	p := bytes.Clone(payload)
	copy(p[r.off:r.off+8], payload[first:first+8])
	return p
}

// TestGlueSerializedRejectsBeforeWriting: TestDeserializeFuzz's
// mutations of a member's payload, and every hostileCounts payload,
// glued onto the non-empty root they border: each either glues into a
// valid root or is rejected with the root untouched. A payload that
// repeats a node cell, or has arcs to nodes the root has cancelled, is
// rejected.
func TestGlueSerializedRejectsBeforeWriting(t *testing.T) {
	_, blocks := computeBlocks(t, synth.Random(grid.Dims{11, 10, 9}, 5), 2, 0.05)
	payload := blocks[1].Serialize()
	if glueOrKeep(t, twin(t, blocks[0]), payload) {
		t.Fatal("intact member payload rejected")
	}
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for trial := 0; trial < 200; trial++ {
		if glueOrKeep(t, twin(t, blocks[0]), mutatePayload(rng, payload, trial)) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no mutation was rejected: the untouched-root check never ran")
	}
	for _, h := range hostileCounts(t, payload) {
		if !glueOrKeep(t, twin(t, blocks[0]), h.payload) {
			t.Fatalf("%s beyond the payload: accepted", h.name)
		}
	}

	dup := repeatCell(t, payload)
	if _, err := Deserialize(dup); err == nil {
		t.Fatal("Deserialize accepted a payload repeating a node cell")
	}
	if !glueOrKeep(t, twin(t, blocks[0]), dup) {
		t.Fatal("a payload repeating a node cell was accepted")
	}

	root := twin(t, blocks[0])
	if root.Simplify(SimplifyOptions{Threshold: 1}).Cancellations == 0 {
		t.Fatal("simplification cancelled nothing")
	}
	both := twin(t, blocks[0])
	both.Glue(blocks[1])
	if !glueOrKeep(t, root, both.Serialize()) {
		t.Fatal("a payload matching cancelled nodes was accepted")
	}
}

// TestGlueCommutes: gluing A onto B and B onto A (then comparing alive
// content) must agree — the merged complex is independent of merge
// order.
func TestGlueCommutes(t *testing.T) {
	vol := synth.Random(grid.Dims{12, 10, 8}, 41)
	_, blocksAB := computeBlocks(t, vol, 2, 0.05)
	_, blocksBA := computeBlocks(t, vol, 2, 0.05)

	ab := blocksAB[0]
	ab.Glue(blocksAB[1])
	ba := blocksBA[1]
	ba.Glue(blocksBA[0])

	an, aa := ab.AliveCounts()
	bn, ba2 := ba.AliveCounts()
	if an != bn || aa != ba2 {
		t.Fatalf("glue order changed content: %v/%d vs %v/%d", an, aa, bn, ba2)
	}
	for i := range ab.Nodes {
		n := &ab.Nodes[i]
		if !n.Alive {
			continue
		}
		if _, ok := ba.NodeAt(n.Cell); !ok {
			t.Fatalf("node at cell %d present in A·B but not B·A", n.Cell)
		}
	}
}

// TestCompactPreservesContent: compaction must not change the alive
// complex, its serialization size, or its hierarchy.
func TestCompactPreservesContent(t *testing.T) {
	ms := traceVolume(t, synth.Random(grid.Dims{10, 9, 8}, 53))
	ms.Simplify(SimplifyOptions{Threshold: 0.2})
	wn, wa := ms.AliveCounts()
	wantHier := len(ms.Hierarchy)
	// Geometry is preserved per arc (same flattened total).
	var wantLen, gotLen int64
	for i := range ms.Arcs {
		if ms.Arcs[i].Alive {
			wantLen += int64(ms.GeomLen(ms.Arcs[i].Geom))
		}
	}
	compact := ms.Compact()
	gn, ga := compact.AliveCounts()
	if wn != gn || wa != ga {
		t.Fatalf("compaction changed counts: %v/%d -> %v/%d", wn, wa, gn, ga)
	}
	if len(compact.Hierarchy) != wantHier {
		t.Fatal("compaction lost hierarchy")
	}
	if err := compact.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range compact.Arcs {
		if compact.Arcs[i].Alive {
			gotLen += int64(compact.GeomLen(compact.Arcs[i].Geom))
		}
	}
	if wantLen != gotLen {
		t.Fatalf("compaction changed total geometry: %d -> %d", wantLen, gotLen)
	}
}
