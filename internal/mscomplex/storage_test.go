package mscomplex

import (
	"bytes"
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"parms/internal/grid"
	"parms/internal/synth"
)

// checkIncidence verifies that every node's incidence list holds
// exactly the alive arcs that end at it.
func checkIncidence(t *testing.T, c *Complex) {
	t.Helper()
	want := make([][]ArcID, len(c.Nodes))
	for i := range c.Arcs {
		if a := &c.Arcs[i]; a.Alive {
			want[a.Upper] = append(want[a.Upper], ArcID(i))
			want[a.Lower] = append(want[a.Lower], ArcID(i))
		}
	}
	for n := range c.Nodes {
		got := c.ArcsOf(NodeID(n), nil)
		slices.Sort(got)
		if !slices.Equal(got, want[n]) {
			t.Fatalf("node %d lists arcs %v, alive arcs ending at it are %v", n, got, want[n])
		}
	}
}

// overfillCarvedList appends arcs to a node whose successor in the
// carved backing array has arcs — every carved list is full right after
// Compact or Deserialize — then checks that no other node's list
// changed.
func overfillCarvedList(t *testing.T, c *Complex) {
	t.Helper()
	n := -1
	for i := 0; i+1 < len(c.Nodes); i++ {
		if len(c.Nodes[i].arcs) > 0 && len(c.Nodes[i+1].arcs) > 0 {
			n = i
			break
		}
	}
	if n < 0 {
		t.Fatal("no node with a full carved list next to a non-empty one")
	}
	partnerIndex := c.Nodes[n].Index + 1
	if c.Nodes[n].Index == 3 {
		partnerIndex = 2
	}
	m := -1
	for i := range c.Nodes {
		if i != n && i != n+1 && c.Nodes[i].Alive && c.Nodes[i].Index == partnerIndex {
			m = i
			break
		}
	}
	if m < 0 {
		t.Fatalf("no node of index %d to connect node %d to", partnerIndex, n)
	}
	before := make([][]ArcID, len(c.Nodes))
	for i := range c.Nodes {
		before[i] = c.ArcsOf(NodeID(i), nil)
	}
	upper, lower := NodeID(m), NodeID(n)
	if c.Nodes[n].Index > c.Nodes[m].Index {
		upper, lower = lower, upper
	}
	var added []ArcID
	for k := 0; k < 3; k++ {
		added = append(added, c.AddArc(upper, lower, c.Arcs[0].Geom))
	}
	for i := range c.Nodes {
		want := before[i]
		if i == n || i == m {
			want = append(slices.Clone(want), added...)
		}
		if got := c.ArcsOf(NodeID(i), nil); !slices.Equal(got, want) {
			t.Fatalf("after appending to node %d: node %d lists %v, want %v", n, i, got, want)
		}
	}
	checkIncidence(t, c)
}

// walkHierarchy simplifies further, then refines to the finest level and
// reapplies to the coarsest, validating every level on the way.
func walkHierarchy(t *testing.T, c *Complex) {
	t.Helper()
	fine, fineArcs := c.AliveCounts()
	if c.Simplify(SimplifyOptions{Threshold: 0.5}).Cancellations == 0 {
		t.Fatal("further simplification cancelled nothing")
	}
	coarse, coarseArcs := c.AliveCounts()
	check := func(stage string) {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s at level %d: %v", stage, c.Resolution(), err)
		}
		checkIncidence(t, c)
	}
	for c.Refine() {
		check("refine")
	}
	if n, a := c.AliveCounts(); n != fine || a != fineArcs {
		t.Fatalf("finest level %v/%d, want %v/%d", n, a, fine, fineArcs)
	}
	for c.Reapply() {
		check("reapply")
	}
	if n, a := c.AliveCounts(); n != coarse || a != coarseArcs {
		t.Fatalf("coarsest level %v/%d, want %v/%d", n, a, coarse, coarseArcs)
	}
}

// TestCarvedArcListsDoNotAlias: Compact and Deserialize carve every
// node's incidence list from one array with clipped capacity, so
// growing one list past its carved size must leave every other node's
// list intact, and the hierarchy built on top must stay valid.
func TestCarvedArcListsDoNotAlias(t *testing.T) {
	build := func() *Complex {
		ms := traceVolume(t, synth.Random(grid.Dims{9, 9, 9}, 61))
		ms.Simplify(SimplifyOptions{Threshold: 0.1})
		return ms.Compact()
	}
	t.Run("compacted", func(t *testing.T) {
		c := build()
		overfillCarvedList(t, c)
		walkHierarchy(t, c)
	})
	t.Run("deserialized", func(t *testing.T) {
		c, err := Deserialize(build().Serialize())
		if err != nil {
			t.Fatal(err)
		}
		overfillCarvedList(t, c)
		walkHierarchy(t, c)
	})
}

// refHeap drives candidateHeap's ordering through container/heap.
type refHeap struct{ candidateHeap }

func (h *refHeap) Len() int           { return len(h.candidateHeap) }
func (h *refHeap) Less(i, j int) bool { return h.candidateHeap.less(i, j) }
func (h *refHeap) Swap(i, j int) {
	h.candidateHeap[i], h.candidateHeap[j] = h.candidateHeap[j], h.candidateHeap[i]
}
func (h *refHeap) Push(x any) { h.candidateHeap = append(h.candidateHeap, x.(candidate)) }
func (h *refHeap) Pop() any {
	old := h.candidateHeap
	x := old[len(old)-1]
	h.candidateHeap = old[:len(old)-1]
	return x
}

// TestCandidateHeapMatchesContainerHeap: the typed push and pop sift
// exactly as container/heap does, so the heap array — and with it the
// cancellation order, arc ids and hierarchy — is the same after every
// operation, ties included.
func TestCandidateHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func() candidate {
		return candidate{
			pers:      float32(rng.Intn(3)) / 2,
			upperCell: uint64(rng.Intn(3)),
			lowerCell: uint64(rng.Intn(2)),
			arc:       ArcID(rng.Intn(4)),
		}
	}
	var typed candidateHeap
	ref := &refHeap{}
	for step := 0; step < 20000; step++ {
		if len(typed) == 0 || rng.Intn(5) < 3 {
			x := gen()
			typed.push(x)
			heap.Push(ref, x)
		} else if got, want := typed.pop(), heap.Pop(ref).(candidate); got != want {
			t.Fatalf("step %d: pop %+v, container/heap pops %+v", step, got, want)
		}
		if !slices.Equal(typed, ref.candidateHeap) {
			t.Fatalf("step %d: heap arrays differ", step)
		}
	}
	for len(typed) > 0 {
		if got, want := typed.pop(), heap.Pop(ref).(candidate); got != want {
			t.Fatalf("drain: pop %+v, container/heap pops %+v", got, want)
		}
	}
}

// FuzzDeserialize: arbitrary bytes never panic the decoder, an accepted
// payload decodes to a valid complex, and re-encoding is a fixed point
// after one round trip.
func FuzzDeserialize(f *testing.F) {
	ms := traceVolume(f, synth.Sinusoid(7, 2))
	ms.Simplify(SimplifyOptions{Threshold: 0.1})
	f.Add(ms.Serialize())
	_, blocks := computeBlocks(f, synth.Random(grid.Dims{7, 6, 5}, 5), 2, 0.05)
	blocks[0].Glue(blocks[1])
	glued := blocks[0].Serialize()
	f.Add(glued)
	f.Add(glued[:len(glued)/2])
	f.Add(New(nil).Serialize())
	f.Fuzz(func(t *testing.T, p []byte) {
		c, err := Deserialize(p)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted payload decodes to an invalid complex: %v", err)
		}
		s := c.Serialize()
		back, err := Deserialize(s)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if again := back.Serialize(); !bytes.Equal(again, s) {
			t.Fatalf("re-encoding is not a fixed point: %d then %d bytes", len(s), len(again))
		}
	})
}
