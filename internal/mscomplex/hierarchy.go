package mscomplex

// Multi-resolution navigation. Repeated cancellation builds a hierarchy
// of MS complexes (section III-C); the paper's analysis pipeline
// (Figure 1) explores features "at multiple topological scales" by
// moving through that hierarchy interactively, without recomputing
// anything. Because cancellation only flips Alive flags (elements are
// physically removed by Compact, not Simplify), every cancellation is
// reversible: Refine undoes the most recent one, Reapply redoes it, and
// SetResolution walks to an arbitrary level.
//
// Compact drops the dead elements — the paper's memory cleanup that
// keeps "all but the coarsest levels" out of memory. It compacts its
// receiver in place, so it consumes the receiver's finer levels: the
// compacted complex starts a fresh hierarchy and cannot be refined past
// its own history.

// undoRecord stores what a cancellation changed, enough to replay it in
// either direction.
type undoRecord struct {
	lower, upper NodeID
	removedArcs  []ArcID
	createdArcs  []ArcID
}

// Resolution returns the number of cancellations currently applied
// (the complex's position in its hierarchy).
func (c *Complex) Resolution() int { return c.applied }

// MaxResolution returns the deepest level reached so far; levels in
// [Resolution, MaxResolution) can be re-applied without recomputation.
func (c *Complex) MaxResolution() int { return len(c.undo) }

// Refine undoes the most recently applied cancellation, restoring the
// cancelled node pair and its arcs and removing the arcs the
// cancellation created. It reports whether a level was undone (false at
// the finest available resolution, or on a complex whose fine levels
// were dropped by Compact or serialization).
func (c *Complex) Refine() bool {
	if c.applied == 0 || c.applied > len(c.undo) {
		return false
	}
	rec := &c.undo[c.applied-1]
	for _, a := range rec.createdArcs {
		c.Arcs[a].Alive = false
	}
	c.Nodes[rec.lower].Alive = true
	c.Nodes[rec.upper].Alive = true
	for _, a := range rec.removedArcs {
		c.reviveArc(a)
	}
	c.applied--
	c.Work.ArcsTouched += int64(len(rec.createdArcs) + len(rec.removedArcs))
	return true
}

// Reapply redoes the next recorded cancellation after a Refine. It
// reports whether a level was re-applied.
func (c *Complex) Reapply() bool {
	if c.applied >= len(c.undo) {
		return false
	}
	rec := &c.undo[c.applied]
	for _, a := range rec.removedArcs {
		c.Arcs[a].Alive = false
	}
	c.Nodes[rec.lower].Alive = false
	c.Nodes[rec.upper].Alive = false
	for _, a := range rec.createdArcs {
		c.reviveArc(a)
	}
	c.applied++
	c.Work.ArcsTouched += int64(len(rec.createdArcs) + len(rec.removedArcs))
	return true
}

// SetResolution navigates to the given hierarchy level: 0 is the finest
// available state, MaxResolution() the coarsest computed so far. It
// returns the level actually reached (clamped to what the history
// allows).
func (c *Complex) SetResolution(level int) int {
	if level < 0 {
		level = 0
	}
	if level > len(c.undo) {
		level = len(c.undo)
	}
	for c.applied > level && c.Refine() {
	}
	for c.applied < level && c.Reapply() {
	}
	return c.applied
}

// reviveArc marks an arc alive again and guarantees it is present in
// both endpoints' incidence lists (lazy pruning may have dropped it
// while it was dead).
func (c *Complex) reviveArc(a ArcID) {
	arc := &c.Arcs[a]
	arc.Alive = true
	c.ensureListed(arc.Upper, a)
	c.ensureListed(arc.Lower, a)
}

func (c *Complex) ensureListed(n NodeID, a ArcID) {
	node := &c.Nodes[n]
	for _, existing := range node.arcs {
		if existing == a {
			return
		}
	}
	node.arcs = append(node.arcs, a)
}
