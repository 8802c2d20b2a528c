package main

import (
	"fmt"
	"slices"

	"parms"
)

// checker validates every compute of a run against the first one, the
// pinned counts of the default seed and, for a recovery workload, the
// fault-free twin and the expected fault report.
type checker struct {
	w      *workload
	pinned bool    // compare with w.pinned
	ref    *counts // output of the first successful call
	twin   *counts // fault-free twin of a recovery workload
}

func newChecker(w *workload, seed int64) *checker {
	return &checker{w: w, pinned: seed == defaultSeed}
}

// outputCounts summarises a result and validates every output complex.
func outputCounts(res *parms.Result) (counts, error) {
	c := counts{Nodes: res.Nodes, Arcs: res.Arcs, OutputBlocks: len(res.Complexes)}
	for id, ms := range res.Complexes {
		if err := ms.Validate(); err != nil {
			return c, fmt.Errorf("output block %d: %w", id, err)
		}
		c.Euler += ms.EulerCharacteristic()
	}
	if c.OutputBlocks != res.OutputBlocks {
		return c, fmt.Errorf("%d complexes kept for %d output blocks", c.OutputBlocks, res.OutputBlocks)
	}
	return c, nil
}

// check returns the first failed output check of one compute, or nil.
func (k *checker) check(res *parms.Result, err error) error {
	if err != nil {
		return err
	}
	got, err := outputCounts(res)
	if err != nil {
		return err
	}
	if k.ref == nil {
		k.ref = &got
	}
	if got != *k.ref {
		return fmt.Errorf("output %v differs from the first call's %v", got, *k.ref)
	}
	if k.pinned && got != k.w.pinned {
		return fmt.Errorf("output %v differs from the pinned %v", got, k.w.pinned)
	}
	if d := k.w.drill; d != nil {
		if k.twin == nil {
			return fmt.Errorf("no fault-free twin to compare with")
		}
		if got.Nodes != k.twin.Nodes || got.Arcs != k.twin.Arcs {
			return fmt.Errorf("recovered output %v differs from the fault-free twin %v", got, *k.twin)
		}
		if err := checkReport(res.FaultReport, d); err != nil {
			return err
		}
	}
	return nil
}

// checkTruncated checks the number of (saddle, saddle) pairs whose arc
// multiplicity the tracer clamped to TraceOptions.MaxArcsPerPair. The
// clamp is the tracer's documented cap (two records keep cancellation
// validity exact) and is not zero on two workloads at this commit, so
// the count is reported and, for the default seed, must equal the
// pinned one (see README).
func (k *checker) checkTruncated(n int) error {
	if k.pinned && n != k.w.pinnedTruncated {
		return fmt.Errorf("%d saddle pairs truncated, pinned %d", n, k.w.pinnedTruncated)
	}
	return nil
}

// checkReport requires exactly the recovery the drill is built for: the
// crashed rank's block migrates once and its round-0 subtree comes back
// from a checkpoint, with no receive timing out and nothing recomputed.
// A timeout here means a healthy sender was read as lost (see README).
func checkReport(r parms.FaultReport, d *recovery) error {
	switch {
	case r.RankCrashes != 1:
		return fmt.Errorf("fault report: %d crashes, want 1", r.RankCrashes)
	case r.Migrations != 1 || !slices.Equal(r.MigratedBlocks, []int{d.crashRank}):
		return fmt.Errorf("fault report: %d migrations of %v, want 1 of [%d]", r.Migrations, r.MigratedBlocks, d.crashRank)
	case r.CheckpointRestores < 1 || !slices.Equal(r.RestoredBlocks, d.restored):
		return fmt.Errorf("fault report: %d restores of %v, want %v", r.CheckpointRestores, r.RestoredBlocks, d.restored)
	case r.Timeouts != 0 || r.Recomputes != 0 || r.Corruptions != 0:
		return fmt.Errorf("fault report: %d timeouts, %d recomputes, %d corruptions, want none",
			r.Timeouts, r.Recomputes, r.Corruptions)
	}
	return nil
}
