package mscomplex

// SimplifyOptions controls persistence-based simplification.
type SimplifyOptions struct {
	// Threshold is the maximum persistence of a cancellation. Pairs
	// with strictly greater persistence survive.
	Threshold float32
}

// SimplifyStats reports what a Simplify call did.
type SimplifyStats struct {
	Cancellations int
	ArcsCreated   int
}

// maxFanout skips a cancellation when it would create more than this
// many new arcs, a safeguard against quadratic blowup in pathological
// data.
const maxFanout = 100000

type candidate struct {
	pers      float32
	upperCell uint64
	lowerCell uint64
	arc       ArcID
}

// candidateHeap is a binary min-heap of candidates. push and pop sift
// exactly as container/heap's Push and Pop do, without boxing every
// candidate in an interface.
type candidateHeap []candidate

func (h candidateHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.pers != b.pers {
		return a.pers < b.pers
	}
	if a.upperCell != b.upperCell {
		return a.upperCell < b.upperCell
	}
	if a.lowerCell != b.lowerCell {
		return a.lowerCell < b.lowerCell
	}
	return a.arc < b.arc
}

func (h *candidateHeap) push(x candidate) {
	*h = append(*h, x)
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *candidateHeap) pop() candidate {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	*h = q[:n]
	return x
}

// Simplify repeatedly cancels the lowest-persistence valid pair of
// critical nodes until no cancellable pair with persistence at or below
// the threshold remains. A pair is cancellable when its two nodes are
// connected by exactly one arc and neither node lies on a boundary
// shared with blocks outside the complex's region (section IV-E: arcs
// with boundary nodes are never considered).
func (c *Complex) Simplify(opts SimplifyOptions) SimplifyStats {
	var stats SimplifyStats

	boundary := make([]bool, len(c.Nodes))
	for i := range c.Nodes {
		if c.Nodes[i].Alive {
			boundary[i] = c.IsBoundaryNode(NodeID(i))
		}
	}

	// Only arcs at or below the threshold with no boundary end are
	// pushed, usually a small share of the arcs, so the heap grows from
	// empty. less is a total order, so the pops come out in the same
	// sequence however the heap was built.
	var h candidateHeap
	push := func(a ArcID) {
		arc := &c.Arcs[a]
		if !arc.Alive {
			return
		}
		if boundary[arc.Upper] || boundary[arc.Lower] {
			return
		}
		p := c.Persistence(a)
		if p > opts.Threshold {
			return
		}
		h.push(candidate{
			pers:      p,
			upperCell: uint64(c.Nodes[arc.Upper].Cell),
			lowerCell: uint64(c.Nodes[arc.Lower].Cell),
			arc:       a,
		})
	}
	for a := range c.Arcs {
		push(ArcID(a))
	}

	// Per-cancellation scratch, reused across the loop.
	var arcBuf, ups, downs []ArcID
	pairCount := make(map[[2]NodeID]int)
	countedQ := make(map[NodeID]bool)
	for len(h) > 0 {
		cand := h.pop()
		arc := &c.Arcs[cand.arc]
		if !arc.Alive {
			continue
		}
		u, v := arc.Lower, arc.Upper
		if c.Multiplicity(u, v) != 1 {
			continue // connected by more than one arc: not cancellable
		}
		// Gather the surviving neighborhood before surgery.
		// ups: index d+1 neighbors of u other than v.
		// downs: index d neighbors of v other than u.
		ups, downs = ups[:0], downs[:0]
		arcBuf = c.ArcsOf(u, arcBuf[:0])
		for _, a := range arcBuf {
			if other := c.OtherEnd(a, u); other != v {
				if c.Arcs[a].Upper == u {
					continue // u is the upper end: neighbor has index d-1
				}
				ups = append(ups, a)
			}
		}
		arcBuf = c.ArcsOf(v, arcBuf[:0])
		for _, a := range arcBuf {
			if other := c.OtherEnd(a, v); other != u {
				if c.Arcs[a].Lower == v {
					continue // v is the lower end: neighbor has index d+2
				}
				downs = append(downs, a)
			}
		}
		if len(ups)*len(downs) > maxFanout {
			continue
		}

		// Remove the cancelled pair and every arc touching it. The
		// single u–v arc is listed by both, and dead by the time v's
		// list is read.
		arcBuf = c.ArcsOf(u, arcBuf[:0])
		for _, a := range arcBuf {
			c.Arcs[a].Alive = false
		}
		removed := len(arcBuf)
		arcBuf = c.ArcsOf(v, arcBuf[:0])
		for _, a := range arcBuf {
			c.Arcs[a].Alive = false
		}
		removed += len(arcBuf)
		c.Nodes[u].Alive = false
		c.Nodes[v].Alive = false
		c.Work.ArcsTouched += int64(removed)

		// Reconnect: every upper neighbor q of u to every lower
		// neighbor p of v, with geometry q→u, u→v (reversed arc), v→p.
		// Parallel records between one (q, p) pair are clamped at two:
		// multiplicity never decreases while both endpoints live, so
		// "≥ 2" blocks cancellation identically however large it is.
		// The composites' part lists go straight into the part arena.
		clear(pairCount)
		clear(countedQ)
		created := 0
		for _, qa := range ups {
			q := c.Arcs[qa].Upper
			if !countedQ[q] {
				countedQ[q] = true
				arcBuf = c.ArcsOf(q, arcBuf[:0])
				for _, a := range arcBuf {
					if c.Arcs[a].Upper == q {
						pairCount[[2]NodeID{q, c.Arcs[a].Lower}]++
					}
				}
			}
			for _, pa := range downs {
				p := c.Arcs[pa].Lower
				key := [2]NodeID{q, p}
				if pairCount[key] >= 2 {
					continue
				}
				pairCount[key]++
				g := [3]GeomPart{
					{ID: c.Arcs[qa].Geom},
					{ID: arc.Geom, Reversed: true},
					{ID: c.Arcs[pa].Geom},
				}
				push(c.AddArc(q, p, c.AddCompositeGeom(g[:])))
				created++
			}
		}

		c.Hierarchy = append(c.Hierarchy, Cancellation{
			Persistence: cand.pers,
			UpperCell:   c.Nodes[v].Cell,
			LowerCell:   c.Nodes[u].Cell,
			UpperValue:  c.Nodes[v].Value,
			LowerValue:  c.Nodes[u].Value,
			ArcsRemoved: removed,
			ArcsCreated: created,
		})
		c.Work.Cancellations++
		stats.Cancellations++
		stats.ArcsCreated += created
	}
	return stats
}

// LowestCancellable returns the lowest persistence among currently
// cancellable pairs, and false if none exists. Tests use it to verify
// that Simplify left nothing below its threshold.
func (c *Complex) LowestCancellable() (float32, bool) {
	best := float32(0)
	found := false
	for a := range c.Arcs {
		arc := &c.Arcs[a]
		if !arc.Alive {
			continue
		}
		if c.IsBoundaryNode(arc.Upper) || c.IsBoundaryNode(arc.Lower) {
			continue
		}
		if c.Multiplicity(arc.Lower, arc.Upper) != 1 {
			continue
		}
		p := c.Persistence(ArcID(a))
		if !found || p < best {
			best, found = p, true
		}
	}
	return best, found
}
