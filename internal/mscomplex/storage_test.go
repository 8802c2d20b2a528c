package mscomplex

import (
	"bytes"
	"container/heap"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/synth"
)

// checkIncidence verifies that every node's incidence list holds
// exactly the alive arcs that end at it, in ascending arc order: every
// append adds the newest arc, and Compact and the decoder fill the
// lists in arc order, so list order never depends on history.
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
		if !slices.IsSorted(got) {
			t.Fatalf("node %d lists arcs %v, out of arc order", n, got)
		}
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

// simplifyFurtherValid simplifies c further and checks that the result
// passes Validate and checkIncidence.
func simplifyFurtherValid(t *testing.T, c *Complex) {
	t.Helper()
	if c.Simplify(SimplifyOptions{Threshold: 0.5}).Cancellations == 0 {
		t.Fatal("further simplification cancelled nothing")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	checkIncidence(t, c)
}

// TestCarvedArcListsDoNotAlias: Compact and Deserialize carve every
// node's incidence list from one array with clipped capacity, so
// growing one list past its carved size must leave every other node's
// list intact, and simplifying further must leave a valid complex.
func TestCarvedArcListsDoNotAlias(t *testing.T) {
	build := func() *Complex {
		ms := traceVolume(t, synth.Random(grid.Dims{9, 9, 9}, 61))
		ms.Simplify(SimplifyOptions{Threshold: 0.1})
		return ms.Compact()
	}
	t.Run("compacted", func(t *testing.T) {
		c := build()
		overfillCarvedList(t, c)
		simplifyFurtherValid(t, c)
	})
	t.Run("deserialized", func(t *testing.T) {
		c, err := Deserialize(build().Serialize())
		if err != nil {
			t.Fatal(err)
		}
		overfillCarvedList(t, c)
		simplifyFurtherValid(t, c)
	})
}

// arenaView is every geometry of a complex flattened and every node's
// owner list, copied out of the complex's arenas.
type arenaView struct {
	geoms  [][]grid.Addr
	owners [][]int32
}

func viewArenas(c *Complex) arenaView {
	var v arenaView
	for g := range c.Geoms {
		v.geoms = append(v.geoms, c.FlattenGeom(GeomID(g)))
	}
	for n := range c.Nodes {
		v.owners = append(v.owners, slices.Clone(c.Owners(NodeID(n))))
	}
	return v
}

// checkArenas fails if c's geometries or owner lists differ from v.
func checkArenas(t *testing.T, c *Complex, v arenaView) {
	t.Helper()
	for g, want := range v.geoms {
		if got := c.FlattenGeom(GeomID(g)); !slices.Equal(got, want) {
			t.Fatalf("geometry %d changed: %d cells, was %d", g, len(got), len(want))
		}
	}
	for n, want := range v.owners {
		if got := c.Owners(NodeID(n)); !slices.Equal(got, want) {
			t.Fatalf("node %d owners changed: %v, was %v", n, got, want)
		}
	}
}

// growArenas appends to all three arenas of c: Simplify adds composite
// part lists, AddLeafGeom a leaf's cells, AddNode an owner list.
func growArenas(t *testing.T, c *Complex) {
	t.Helper()
	if c.Simplify(SimplifyOptions{Threshold: 0.5}).ArcsCreated == 0 {
		t.Fatal("simplification created no composite geometry")
	}
	leaf := make([]grid.Addr, 64)
	for i := range leaf {
		leaf[i] = grid.Addr(1<<40 + i)
	}
	c.AddLeafGeom(leaf)
	c.AddNode(Node{Cell: 1 << 41}, []int32{97, 98, 99})
}

// TestArenasDoNotAlias: Compact, Deserialize and Glue copy what they
// keep into arenas the built complex owns, so growing either side's
// arenas afterwards leaves every geometry and owner list of the other
// side as it was. Compact works in place, so its source and result are
// one complex: its rows check that growing the exact-size arenas it
// leaves keeps every existing geometry and owner list.
func TestArenasDoNotAlias(t *testing.T) {
	vol := synth.Random(grid.Dims{9, 9, 9}, 61)
	builds := []struct {
		name  string
		build func(t *testing.T) (source, built *Complex)
	}{
		{"compact", func(t *testing.T) (*Complex, *Complex) {
			src := traceVolume(t, vol)
			src.Simplify(SimplifyOptions{Threshold: 0.1})
			return src, src.Compact()
		}},
		{"deserialize", func(t *testing.T) (*Complex, *Complex) {
			src := traceVolume(t, vol)
			src.Simplify(SimplifyOptions{Threshold: 0.1})
			built, err := Deserialize(src.Serialize())
			if err != nil {
				t.Fatal(err)
			}
			return src, built
		}},
		{"glue", func(t *testing.T) (*Complex, *Complex) {
			_, blocks := computeBlocks(t, vol, 2, 0.1)
			blocks[0].Glue(blocks[1])
			return blocks[1], blocks[0]
		}},
	}
	for _, b := range builds {
		t.Run(b.name+"/grow-source", func(t *testing.T) {
			src, built := b.build(t)
			want := viewArenas(built)
			growArenas(t, src)
			checkArenas(t, built, want)
		})
		t.Run(b.name+"/grow-built", func(t *testing.T) {
			src, built := b.build(t)
			want := viewArenas(src)
			growArenas(t, built)
			checkArenas(t, src, want)
		})
	}
}

// mallocsAfterGC returns the most heap allocations one call of f made
// over runs calls, each made right after two GCs have emptied every
// sync.Pool, so a pool miss is inside the count. setup runs before
// each call, outside the count.
func mallocsAfterGC(runs int, setup, f func()) uint64 {
	var most uint64
	for i := 0; i < runs; i++ {
		setup()
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

// TestDeserializeAllocsBounded: Deserialize allocates each array and
// arena once, however many geometries and owner lists the payload
// holds, instead of one slice per geometry and per node.
func TestDeserializeAllocsBounded(t *testing.T) {
	_, blocks := computeBlocks(t, synth.Random(grid.Dims{17, 17, 17}, 7), 2, 0.05)
	payload := blocks[0].Serialize()
	if len(blocks[0].Geoms) < 1000 {
		t.Fatalf("only %d geometries: too few to tell per-geometry allocation apart", len(blocks[0].Geoms))
	}
	allocs := mallocsAfterGC(5, func() {}, func() {
		if _, err := Deserialize(payload); err != nil {
			t.Fatal(err)
		}
	})
	// The fixed arrays, the scratch tables and the node index map, whose
	// table count grows with the node count, not the geometry count.
	// Measured: 22–23 allocations after a GC; the budget leaves 9.
	const limit = 32
	if allocs > limit {
		t.Fatalf("Deserialize of %d geometries made %d allocations, want at most %d", len(blocks[0].Geoms), allocs, limit)
	}
}

// TestGlueSerializedAllocsBounded: gluing a member's payload onto its
// root allocates each array, arena and scratch table once, however many
// geometries the payload holds, and grows the incidence lists of the
// root's boundary nodes from one array rather than one by one.
func TestGlueSerializedAllocsBounded(t *testing.T) {
	_, blocks := computeBlocks(t, synth.Random(grid.Dims{17, 17, 17}, 7), 2, 0.05)
	rootPayload, payload := blocks[0].Serialize(), blocks[1].Serialize()
	if len(blocks[1].Geoms) < 1000 {
		t.Fatalf("only %d geometries: too few to tell per-geometry allocation apart", len(blocks[1].Geoms))
	}
	var root *Complex
	allocs := mallocsAfterGC(5, func() {
		var err error
		if root, err = Deserialize(rootPayload); err != nil {
			t.Fatal(err)
		}
	}, func() {
		if err := root.GlueSerialized(payload); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 24 allocations after a GC; the budget leaves 8.
	const limit = 32
	if allocs > limit {
		t.Fatalf("GlueSerialized of %d geometries made %d allocations, want at most %d", len(blocks[1].Geoms), allocs, limit)
	}
}

// TestSimplifyAllocsBounded: Simplify on BenchmarkSimplify32's complex
// allocates for the arcs, geometry and heap it grows and for its
// scratch, but keeps no per-cancellation record beside the hierarchy.
func TestSimplifyAllocsBounded(t *testing.T) {
	f := benchField(t, 33, 4)
	var ms *Complex
	allocs := mallocsAfterGC(5, func() {
		ms = FromField(f, nil, TraceOptions{}).Complex
	}, func() {
		ms.Simplify(SimplifyOptions{Threshold: 0.02})
	})
	// Measured: 804–805 allocations after a GC (2,386 while every
	// cancellation wrote an undo record); the budget leaves 195.
	const limit = 1000
	if allocs > limit {
		t.Fatalf("Simplify made %d allocations, want at most %d", allocs, limit)
	}
}

// TestCompactAllocsBounded: Compact on BenchmarkCompact32's complex
// allocates each array, arena and slot table once, however many nodes
// and arcs survive.
func TestCompactAllocsBounded(t *testing.T) {
	f := benchField(t, 33, 4)
	var ms *Complex
	allocs := mallocsAfterGC(5, func() {
		ms = FromField(f, nil, TraceOptions{}).Complex
		ms.Simplify(SimplifyOptions{Threshold: 0.02})
	}, func() {
		ms.Compact()
	})
	// Measured: 16 allocations after a GC; the budget leaves 8.
	const limit = 24
	if allocs > limit {
		t.Fatalf("Compact made %d allocations, want at most %d", allocs, limit)
	}
}

// TestMultiplicityAllocsNothing: Multiplicity and Degree count in place
// over a node's incidence list, also for a node of more alive arcs than
// a small stack buffer holds, and still prune the dead ones.
func TestMultiplicityAllocsNothing(t *testing.T) {
	c := New([]int32{0})
	u := c.AddNode(Node{Cell: 1, Index: 1}, nil)
	v := c.AddNode(Node{Cell: 2, Index: 0}, nil)
	w := c.AddNode(Node{Cell: 3, Index: 0}, nil)
	for i := 0; i < 40; i++ {
		c.AddArc(u, v, 0)
	}
	for i := 0; i < 8; i++ {
		c.AddArc(u, w, 0)
	}
	for a := 0; a < 48; a += 6 {
		c.Arcs[a].Alive = false // 7 arcs to v and 1 to w
	}
	var mult, deg int
	allocs := testing.AllocsPerRun(10, func() {
		mult = c.Multiplicity(u, v)
		deg = c.Degree(u)
	})
	if mult != 33 || deg != 40 {
		t.Fatalf("Multiplicity(u, v) = %d, Degree(u) = %d; want 33 and 40", mult, deg)
	}
	if len(c.Nodes[u].arcs) != 40 {
		t.Fatalf("u lists %d arcs after pruning, want the 40 alive ones", len(c.Nodes[u].arcs))
	}
	if allocs != 0 {
		t.Fatalf("Multiplicity and Degree made %.0f allocations per call, want 0", allocs)
	}
}

// hostileCounts returns copies of a valid payload with one count
// raised past what the payload holds: the first node's owner count, the
// first leaf's cell count (to 2^32-1) and the first composite's part
// count.
func hostileCounts(t testing.TB, payload []byte) []struct {
	name    string
	payload []byte
} {
	t.Helper()
	r := reader{buf: payload}
	r.u32()
	r.skip(4 * int(r.u32()))
	ownerAt, leafAt, partAt := -1, -1, -1
	for i, n := 0, int(r.u32()); i < n; i++ {
		r.skip(8 + 1 + 4 + 8)
		if ownerAt < 0 {
			ownerAt = r.off
		}
		r.skip(4 * int(r.u16()))
	}
	for i, n := 0, int(r.u32()); i < n; i++ {
		if r.u8() == 0 {
			if leafAt < 0 {
				leafAt = r.off
			}
			r.skip(8 * int(r.u32()))
		} else {
			if partAt < 0 {
				partAt = r.off
			}
			r.skip(5 * int(r.u16()))
		}
	}
	if r.err != nil || ownerAt < 0 || leafAt < 0 || partAt < 0 {
		t.Fatalf("payload lacks an owner list, a leaf or a composite (err %v)", r.err)
	}
	patch := func(at int, count ...byte) []byte {
		p := bytes.Clone(payload)
		copy(p[at:], count)
		return p
	}
	return []struct {
		name    string
		payload []byte
	}{
		{"owner count", patch(ownerAt, 0xff, 0xff)},
		{"leaf cell count", patch(leafAt, 0xff, 0xff, 0xff, 0xff)},
		{"part count", patch(partAt, 0xff, 0xff)},
	}
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

// deserializeCorpus is the seed corpus of FuzzDeserialize and
// FuzzGlueSerialized: a serial complex, a glued two-block complex, its
// first half, an empty complex and the hostileCounts payloads.
func deserializeCorpus(f *testing.F) [][]byte {
	ms := traceVolume(f, synth.Sinusoid(7, 2))
	ms.Simplify(SimplifyOptions{Threshold: 0.1})
	_, blocks := computeBlocks(f, synth.Random(grid.Dims{7, 6, 5}, 5), 2, 0.05)
	blocks[0].Glue(blocks[1])
	glued := blocks[0].Serialize()
	corpus := [][]byte{ms.Serialize(), glued, glued[:len(glued)/2], New(nil).Serialize()}
	for _, h := range hostileCounts(f, glued) {
		corpus = append(corpus, h.payload)
	}
	return corpus
}

// FuzzDeserialize: arbitrary bytes never panic the decoder, an accepted
// payload decodes to a valid complex, and re-encoding is a fixed point
// after one round trip.
func FuzzDeserialize(f *testing.F) {
	for _, p := range deserializeCorpus(f) {
		f.Add(p)
	}
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

// FuzzGlueSerialized: arbitrary bytes glued onto a non-empty root never
// panic, and either leave a root that passes Validate or are rejected
// with the root's bytes unchanged.
func FuzzGlueSerialized(f *testing.F) {
	for _, p := range deserializeCorpus(f) {
		f.Add(p)
	}
	_, blocks := computeBlocks(f, synth.Random(grid.Dims{7, 6, 5}, 5), 2, 0.05)
	f.Fuzz(func(t *testing.T, p []byte) {
		glueOrKeep(t, twin(t, blocks[1]), p)
	})
}

// twin returns an independent copy of c, built by Deserialize: alive
// elements in id order, incidence lists in arc order.
func twin(t *testing.T, c *Complex) *Complex {
	t.Helper()
	out, err := Deserialize(c.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompactInPlace: Compact compacts its receiver and returns it,
// leaving the bytes as they were, and the compacted complex behaves
// exactly as a Deserialize twin under further simplification and
// gluing.
func TestCompactInPlace(t *testing.T) {
	// Compact keeps the node array when at least a quarter of it
	// survives and rebuilds it at exact size otherwise; the two
	// thresholds take one path each.
	kept := map[bool]int{}
	for _, seed := range []int64{3, 17, 29} {
		vol := synth.Random(grid.Dims{10, 9, 11}, seed)

		for _, threshold := range []float32{0.01, 0.3} {
			ms := traceVolume(t, vol)
			ms.Simplify(SimplifyOptions{Threshold: threshold})
			before, nodes := ms.Serialize(), ms.Nodes
			if ms.Compact() != ms {
				t.Fatalf("seed %d: Compact did not return its receiver", seed)
			}
			kept[&ms.Nodes[0] == &nodes[0]]++
			if !bytes.Equal(ms.Serialize(), before) {
				t.Fatalf("seed %d threshold %v: Compact changed the serialized bytes", seed, threshold)
			}
			if err := ms.Validate(); err != nil {
				t.Fatalf("seed %d threshold %v: %v", seed, threshold, err)
			}
			checkIncidence(t, ms)
		}

		ms := traceVolume(t, vol)
		ms.Simplify(SimplifyOptions{Threshold: 0.3})
		checkIncidence(t, ms)
		ref := twin(t, ms)
		ms.Compact()
		checkIncidence(t, ms)
		ms.Simplify(SimplifyOptions{Threshold: 0.6})
		ref.Simplify(SimplifyOptions{Threshold: 0.6})
		if !bytes.Equal(ms.Serialize(), ref.Serialize()) {
			t.Fatalf("seed %d: compact, simplify differs from its twin", seed)
		}

		_, blocks := computeBlocks(t, vol, 4, 0.1)
		root := blocks[0]
		root.Glue(blocks[1])
		root.Simplify(SimplifyOptions{Threshold: 0.1})
		root.Compact()
		ref = twin(t, root)
		for _, b := range blocks[2:] {
			root.Glue(b)
			ref.Glue(b)
		}
		root.Simplify(SimplifyOptions{Threshold: 0.1})
		ref.Simplify(SimplifyOptions{Threshold: 0.1})
		if !bytes.Equal(root.Serialize(), ref.Serialize()) {
			t.Fatalf("seed %d: gluing a compacted root differs from gluing its twin", seed)
		}
	}
	if kept[true] == 0 || kept[false] == 0 {
		t.Fatalf("node array kept %d times, rebuilt %d times: a path went untested", kept[true], kept[false])
	}
}

// TestSealAppendSerialized: serializing behind a reserved frame header
// and sealing it in place gives the frame Frame builds by copying.
func TestSealAppendSerialized(t *testing.T) {
	ms := traceVolume(t, synth.Random(grid.Dims{9, 9, 9}, 5))
	ms.Simplify(SimplifyOptions{Threshold: 0.1})
	want := mpsim.Frame(ms.Serialize())
	got := mpsim.Seal(ms.AppendSerialized(make([]byte, mpsim.FrameHeader)))
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed frame (%d bytes) differs from Frame (%d bytes)", len(got), len(want))
	}
	if !bytes.Equal(ms.AppendSerialized(nil), ms.Serialize()) {
		t.Fatal("AppendSerialized(nil) differs from Serialize")
	}
}
