package merge

import (
	"fmt"

	"parms/internal/fault"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/obs"
	"parms/internal/vtime"
)

// Tag base for merge-round messages; the round index is added so that
// successive rounds never cross-match.
const tagMergeBase = 1 << 20

// RoundStats reports one executed merge round, identical on all ranks.
type RoundStats struct {
	Radix int
	// Seconds is the virtual duration of the round (max over ranks).
	Seconds float64
	// BytesSent is the total payload communicated in the round.
	BytesSent float64
	// Blocks is the number of surviving blocks after the round.
	Blocks int
}

// Options configures Execute beyond the schedule itself.
type Options struct {
	// Threshold is the persistence simplification threshold re-applied
	// after every round.
	Threshold float32
	// Timeout is the virtual-time budget a group root waits for each
	// member payload. 0 selects plain blocking receives: any lost
	// message then fails the run, so set a timeout whenever faults are
	// possible.
	Timeout vtime.Time
	// Recompute rebuilds one original block's simplified, compacted
	// complex from source data, charging the work to r's clock. When
	// set, Execute degrades gracefully: a member that times out or
	// arrives corrupted is recorded, recovered through Recover and glued
	// in member order — the compute stage and the merge are
	// deterministic, so the recovered subtree is identical to the lost
	// one and the output matches the fault-free run byte for byte. When
	// nil (and Checkpoint is nil), any missing block is a hard error.
	Recompute func(r *mpsim.Rank, block int) (*mscomplex.Complex, error)
	// Report, when non-nil, accumulates this rank's observed fault
	// events.
	Report *fault.Report
	// Checkpoint, when non-nil with Every >= 1, makes group roots
	// persist their post-round complexes to the shared filesystem and
	// makes recovery probe those checkpoints before falling back to
	// Recompute. Restoring the newest checkpoint reproduces the exact
	// payload the lost member would have sent, so the merged output
	// stays byte-identical to the fault-free run.
	Checkpoint *Checkpoint
	// Owners is the run's block ownership table; nil selects a plain
	// block-cyclic table, reproducing the paper's frozen assignment.
	// All ranks must hold identical replicas (Execute applies only
	// deterministic, collectively-agreed updates to it).
	Owners *grid.OwnerTable
	// Migrate moves a failed rank's surviving blocks onto healthy ranks
	// chosen by load. Each round starts with a fault-flag Allgather; on
	// a newly-observed failure every rank applies the same ownership
	// update, and the new owners recover the migrated blocks from the
	// dead rank's checkpoints (the files are keyed by (round, block),
	// not rank, so discovery is a plain checkpoint probe) or recompute
	// them. Off by default: the exchange costs one collective per
	// round, so fault-free modeled times are unchanged unless asked
	// for.
	Migrate bool
}

// CanRecover reports whether a lost block can be recovered at all:
// from a checkpoint or by recomputing it from source data. Without
// either, a missing block is a hard error.
func (o Options) CanRecover() bool { return o.Recompute != nil || o.Checkpoint != nil }

// Execute runs the merge rounds of the schedule over the per-block
// complexes owned by this rank, under the block-to-rank assignment of
// Options.Owners (block-cyclic by default). complexes maps block id →
// complex for this rank's blocks; it is mutated: non-root blocks are
// removed, root blocks are replaced by the merged, re-simplified
// complex. Every rank of the cluster must call Execute collectively. It
// returns per-round statistics (identical on every rank).
//
// Every payload travels in a length+CRC32C frame (mpsim.Frame); a root
// never glues bytes that fail the checksum. With Options.Recompute set,
// Execute survives rank crashes (at "merge:<round>" checkpoints),
// dropped, delayed and corrupted messages: every lost root or member is
// recovered through Recover before its glue, in member order, so the
// surviving complex is byte-identical to the fault-free run. With
// Options.Migrate, a crashed rank's blocks additionally change owner
// instead of being recovered in place on the restarted rank.
func Execute(r *mpsim.Rank, sched Schedule, nblocks int, complexes map[int]*mscomplex.Complex, opts Options) ([]RoundStats, error) {
	procs := r.Size()
	tr := r.Tracer()
	owners := opts.Owners
	if owners == nil {
		owners = grid.NewOwnerTable(nblocks, procs)
	}
	stats := make([]RoundStats, 0, len(sched.Radices))
	for round := range sched.Radices {
		startT := r.AllreduceMaxTime()
		roundStart := r.Clock()
		startBytes := float64(r.BytesSent())
		startSent, startRecv := r.BytesSent(), r.BytesRecv()
		if r.Checkpoint(fmt.Sprintf("merge:%d", round)) {
			// Crash-restart: every complex this rank held is gone. Roots
			// are rebuilt below; member payloads are announced lost, and
			// their group roots recover them after timing out.
			for id := range complexes {
				delete(complexes, id)
			}
			if opts.Report != nil {
				opts.Report.RankCrashes++
			}
		}
		// Migration: exchange fault flags, then apply the same
		// deterministic ownership update on every replica of the table.
		// The Allgather also tells the restarted rank itself that its
		// blocks are gone, so it stops resending or re-recovering them.
		// migratedFrom maps block → the dead rank it was adopted from, for
		// blocks newly owned by this rank this round; restore flows name
		// the dead rank as their logical source.
		migratedFrom := map[int]int{}
		if opts.Migrate {
			var flag int64
			if r.Failed() {
				flag = 1
			}
			flags := r.AllgatherInt64(flag)
			var newlyFailed []int
			for rank, f := range flags {
				if f != 0 && owners.Healthy(rank) {
					newlyFailed = append(newlyFailed, rank)
				}
			}
			if len(newlyFailed) > 0 {
				var surviving []int
				for b := 0; b < nblocks; b += sched.Stride(round) {
					surviving = append(surviving, b)
				}
				migs, err := owners.MigrateFrom(newlyFailed, surviving)
				if err != nil {
					return nil, fmt.Errorf("merge: round %d: %w", round, err)
				}
				for _, mg := range migs {
					if mg.To != r.ID() {
						continue
					}
					migratedFrom[mg.Block] = mg.From
					if opts.Report != nil {
						opts.Report.Migrations++
						opts.Report.MigratedBlocks = append(opts.Report.MigratedBlocks, mg.Block)
					}
					tr.Instant("fault:migrate", r.Clock(),
						obs.I("block", int64(mg.Block)), obs.I("from", int64(mg.From)),
						obs.I("to", int64(mg.To)), obs.I("round", int64(round)))
				}
			}
		}
		groups := sched.RoundGroups(nblocks, round)

		// Phase 1: every non-root member owned by this rank sends its
		// serialized complex to the root's owner. Sends are eager, so
		// issuing all sends before any receive cannot deadlock.
		stride := sched.Stride(round)
		for _, g := range groups {
			rootRank := owners.Owner(g.Root)
			for _, m := range g.Members {
				if m == g.Root || owners.Owner(m) != r.ID() {
					continue
				}
				tag := tagMergeBase + round*16 + (m-g.Root)/stride
				ms, ok := complexes[m]
				restoredFrom := -1
				var restoreStart vtime.Time
				if !ok {
					if from, wasMigrated := migratedFrom[m]; wasMigrated {
						// Just adopted from a crashed owner: recover it —
						// from the dead rank's checkpoints when they
						// validate, by deterministic recompute otherwise —
						// and take the send path like any healthy member.
						restoreStart = r.Clock()
						recovered, err := Recover(r, sched, nblocks, m, round, opts)
						if err != nil {
							return nil, fmt.Errorf("merge: recover migrated block %d: %w", m, err)
						}
						ms = recovered
						restoredFrom = from
					} else if opts.Recompute == nil {
						return nil, fmt.Errorf("merge: rank %d does not hold block %d", r.ID(), m)
					} else {
						// Lost to a crash: announce the loss, and the
						// root's timeout path recovers the subtree.
						r.Lose(rootRank, tag)
						continue
					}
				}
				serStart := r.Clock()
				payload := mpsim.Frame(ms.Serialize())
				w := vtime.Work{BytesCoded: int64(len(payload))}
				r.Compute(w)
				if tr.Enabled() {
					tr.Span("serialize", serStart, r.Clock(),
						obs.I("block", int64(m)), obs.I("bytes", int64(len(payload))))
				}
				if restoredFrom >= 0 {
					// The restore moved the dead owner's data onto this
					// rank outside Send/Recv; a synthetic flow attributes
					// it, sized as the payload the block now carries.
					r.NoteFlow(obs.FlowMigratedRestore, restoredFrom, tag, len(payload), restoreStart)
				}
				// A same-rank transfer still goes through the mailbox
				// (no network hops in the model, only a local copy).
				r.Send(rootRank, tag, payload)
				delete(complexes, m)
			}
		}

		// Phase 2: every root owned by this rank receives the group
		// members, glues them in member order, and re-simplifies. A
		// member that times out or fails the checksum is recovered in
		// its place in that order.
		for _, g := range groups {
			if owners.Owner(g.Root) != r.ID() {
				continue
			}
			root, ok := complexes[g.Root]
			if !ok {
				if !opts.CanRecover() {
					return nil, fmt.Errorf("merge: rank %d does not hold root block %d", r.ID(), g.Root)
				}
				restoreStart := r.Clock()
				recovered, err := Recover(r, sched, nblocks, g.Root, round, opts)
				if err != nil {
					return nil, fmt.Errorf("merge: recover root block %d: %w", g.Root, err)
				}
				root = recovered
				if from, wasMigrated := migratedFrom[g.Root]; wasMigrated {
					// Root adopted from a dead rank: no serialized payload
					// exists (it merges in place), so the flow carries the
					// attribution with zero bytes.
					r.NoteFlow(obs.FlowMigratedRestore, from,
						tagMergeBase+round*16, 0, restoreStart)
				}
			}
			for _, m := range g.Members {
				if m == g.Root {
					continue
				}
				srcRank := owners.Owner(m)
				tag := tagMergeBase + round*16 + (m-g.Root)/stride
				var payload []byte
				lost := false
				if opts.Timeout > 0 {
					recvStart := r.Clock()
					var ok bool
					payload, _, ok = r.RecvTimeout(srcRank, tag, opts.Timeout)
					if !ok {
						if !opts.CanRecover() {
							return nil, fmt.Errorf("merge: timeout waiting for block %d from rank %d", m, srcRank)
						}
						// The wait is real virtual time this root lost
						// blocked on the deadline; straggler attribution
						// needs it alongside the bare timeout count.
						waited := float64(r.Clock() - recvStart)
						if opts.Report != nil {
							opts.Report.Timeouts++
							opts.Report.TimeoutWaitSeconds += waited
						}
						tr.Instant("fault:timeout", r.Clock(), obs.I("block", int64(m)),
							obs.I("src", int64(srcRank)), obs.I("round", int64(round)),
							obs.F("wait_s", waited))
						lost = true
					}
				} else {
					payload, _ = r.Recv(srcRank, tag)
				}
				var other *mscomplex.Complex
				if !lost {
					var err error
					other, err = decodeMember(payload)
					if err != nil {
						if !opts.CanRecover() {
							return nil, fmt.Errorf("merge: block %d from rank %d: %w", m, srcRank, err)
						}
						if opts.Report != nil {
							opts.Report.Corruptions++
						}
						tr.Instant("fault:corrupt", r.Clock(), obs.I("block", int64(m)),
							obs.I("src", int64(srcRank)), obs.I("round", int64(round)))
						other, payload = nil, nil
					}
				}
				if other == nil {
					// The recovered complex is the one this member would
					// have sent, so gluing it here, in member order, keeps
					// the merged output byte-identical to the fault-free
					// run.
					recovered, err := Recover(r, sched, nblocks, m, round, opts)
					if err != nil {
						return nil, fmt.Errorf("merge: recover block %d: %w", m, err)
					}
					other = recovered
				}
				glueStart := r.Clock()
				if len(payload) > 0 {
					r.Compute(vtime.Work{BytesCoded: int64(len(payload))})
				}
				workBefore := root.Work
				root.Glue(other)
				r.Compute(workDelta(root.Work, workBefore))
				if tr.Enabled() {
					tr.Span("glue", glueStart, r.Clock(),
						obs.I("block", int64(m)), obs.I("bytes", int64(len(payload))))
				}
			}
			simpStart := r.Clock()
			workBefore := root.Work
			root.Simplify(mscomplex.SimplifyOptions{Threshold: opts.Threshold})
			compacted := root.Compact() // carries root.Work plus its own ops
			r.Compute(workDelta(compacted.Work, workBefore))
			if tr.Enabled() {
				n, a := compacted.AliveCounts()
				tr.Span("simplify", simpStart, r.Clock(), obs.I("root", int64(g.Root)),
					obs.I("nodes", int64(n[0]+n[1]+n[2]+n[3])), obs.I("arcs", int64(a)))
			}

			if opts.Checkpoint.writesAfter(round) {
				opts.Checkpoint.write(r, sched, nblocks, round, g.Root, compacted, opts.Report)
			}
			complexes[g.Root] = compacted
		}

		roundEnd := r.Clock()
		sentDelta, recvDelta := r.BytesSent()-startSent, r.BytesRecv()-startRecv
		endT := r.AllreduceMaxTime()
		bytes := r.AllreduceFloat64(float64(r.BytesSent())-startBytes, "sum")
		blocksLeft := (nblocks + sched.Stride(round+1) - 1) / sched.Stride(round+1)
		if tr.Enabled() {
			tr.Span(fmt.Sprintf("round:%d", round), roundStart, roundEnd,
				obs.I("radix", int64(sched.Radices[round])),
				obs.I("blocks_after", int64(blocksLeft)),
				obs.I("sent_bytes", sentDelta),
				obs.I("recv_bytes", recvDelta))
		}
		stats = append(stats, RoundStats{
			Radix:     sched.Radices[round],
			Seconds:   endT - startT,
			BytesSent: bytes,
			Blocks:    blocksLeft,
		})
	}
	return stats, nil
}

// decodeMember unframes and deserializes one merge payload, rejecting
// any corruption.
func decodeMember(payload []byte) (*mscomplex.Complex, error) {
	inner, err := mpsim.Unframe(payload)
	if err != nil {
		return nil, err
	}
	return mscomplex.Deserialize(inner)
}

// rebuild deterministically reconstructs the merged complex that block
// carries entering the given round: the per-block complexes of its
// subtree (the stride-sized id range the earlier rounds folded into it)
// recomputed from source data via opts.Recompute, then the earlier
// rounds replayed locally in the same glue order and with the same
// per-round simplification as the original merge. Because both the
// compute stage and the merge are deterministic, the result is
// identical to the complex that was lost. The work performed is charged
// to r's virtual clock, so recovery cost is visible in the trace.
func rebuild(r *mpsim.Rank, sched Schedule, nblocks, block, round int, opts Options) (*mscomplex.Complex, error) {
	if opts.Recompute == nil {
		return nil, fmt.Errorf("merge: no recompute callback")
	}
	rebuildStart := r.Clock()
	span := sched.Stride(round)
	end := block + span
	if end > nblocks {
		end = nblocks
	}
	local := make(map[int]*mscomplex.Complex, span)
	for b := block; b < end; b++ {
		ms, err := opts.Recompute(r, b)
		if err != nil {
			return nil, err
		}
		local[b] = ms
		// RecomputeCells is recorded inside the Recompute callback,
		// where the gradient pass that visits them runs.
		if opts.Report != nil {
			opts.Report.RecoveredBlocks = append(opts.Report.RecoveredBlocks, b)
		}
	}
	if opts.Report != nil {
		opts.Report.Recomputes++
	}
	for rr := 0; rr < round; rr++ {
		for _, g := range sched.RoundGroups(nblocks, rr) {
			if g.Root < block || g.Root >= end {
				continue
			}
			root := local[g.Root]
			for _, m := range g.Members {
				if m == g.Root {
					continue
				}
				workBefore := root.Work
				root.Glue(local[m])
				r.Compute(workDelta(root.Work, workBefore))
				delete(local, m)
			}
			workBefore := root.Work
			root.Simplify(mscomplex.SimplifyOptions{Threshold: opts.Threshold})
			compacted := root.Compact()
			r.Compute(workDelta(compacted.Work, workBefore))
			local[g.Root] = compacted
		}
	}
	// Recovery cost is first-class in the trace: one span on the
	// rebuilding rank, whose duration is the recompute budget the
	// fault-aware-scheduling work (ROADMAP) will optimize against.
	r.Tracer().Span("rebuild", rebuildStart, r.Clock(),
		obs.I("block", int64(block)), obs.I("round", int64(round)),
		obs.I("subtree", int64(span)))
	return local[block], nil
}

func workDelta(after, before vtime.Work) vtime.Work {
	return vtime.Work{
		CellsVisited:  after.CellsVisited - before.CellsVisited,
		PairTests:     after.PairTests - before.PairTests,
		PathSteps:     after.PathSteps - before.PathSteps,
		Cancellations: after.Cancellations - before.Cancellations,
		ArcsTouched:   after.ArcsTouched - before.ArcsTouched,
		NodesGlued:    after.NodesGlued - before.NodesGlued,
		BytesCoded:    after.BytesCoded - before.BytesCoded,
		SortedItems:   after.SortedItems - before.SortedItems,
	}
}
