package merge

import (
	"parms/internal/fault"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/vtime"
)

// Checkpoint configures merge-round checkpointing. After every Every-th
// round, each group root persists its merged, simplified complex as a
// single-entry PCSFM2 file (payload + footer CRCs) on the shared
// filesystem. Recovery then probes for the newest valid checkpoint
// covering a lost subtree and restores it with a retrying, CRC-verified
// read, replaying any later rounds locally — turning late-round
// recovery from O(subtree recompute) into O(payload read). Writes are
// independent (no collective synchronization) and non-fatal: a failed
// or corrupted checkpoint only means recovery falls back to rebuild.
type Checkpoint struct {
	// Dir is the checkpoint directory on the simulated filesystem;
	// empty selects "ckpt".
	Dir string
	// Every writes a checkpoint after each round r with (r+1)%Every ==
	// 0; values < 1 disable checkpointing entirely.
	Every int
	// GC reclaims superseded checkpoints: once a root's round-r state is
	// safely on disk, the older checkpoints of every block in its
	// subtree cover strictly less progress and are deleted. The trade:
	// if the new file is later found corrupted, restore can no longer
	// probe an older round and recovery degrades to rebuild — still
	// correct, just slower. GC runs only after a successful write.
	GC bool
}

func (c *Checkpoint) dir() string {
	if c.Dir == "" {
		return "ckpt"
	}
	return c.Dir
}

// writesAfter reports whether roots persist their state at the end of
// the given round. Nil-safe: a nil policy never writes.
func (c *Checkpoint) writesAfter(round int) bool {
	return c != nil && c.Every > 0 && (round+1)%c.Every == 0
}

// write persists one root's post-round complex, then lets the GC
// reclaim the checkpoints it supersedes. Failures are recorded in the
// trace but deliberately not fatal: the checkpoint is an optimization
// of the recovery path, not a correctness requirement.
func (c *Checkpoint) write(r *mpsim.Rank, sched Schedule, nblocks, round, block int, ms *mscomplex.Complex, rep *fault.Report) {
	start := r.Clock()
	data := pario.EncodeCheckpoint(block, ms)
	name := pario.CheckpointName(c.dir(), round, block)
	if err := r.IndependentWrite(name, 0, data); err != nil {
		r.Tracer().Instant("fault:ckpt_write_fail", r.Clock(),
			obs.I("block", int64(block)), obs.I("round", int64(round)),
			obs.S("err", err.Error()))
		return
	}
	r.Tracer().Span("ckpt:write", start, r.Clock(),
		obs.I("block", int64(block)), obs.I("round", int64(round)),
		obs.I("bytes", int64(len(data))))
	c.gc(r, sched, nblocks, round, block, rep)
}

// gc deletes the checkpoints superseded by a freshly written round-r
// state of block: every earlier checkpointed round k, for every block
// of the subtree the new file covers (the multiples of stride(k+1) in
// [block, block+stride(round+1))). Deletion is a metadata operation —
// no clock charge — matching unlink on a parallel filesystem.
func (c *Checkpoint) gc(r *mpsim.Rank, sched Schedule, nblocks, round, block int, rep *fault.Report) {
	if !c.GC {
		return
	}
	end := block + sched.Stride(round+1)
	if end > nblocks {
		end = nblocks
	}
	var files int
	var bytes int64
	for k := round - 1; k >= 0; k-- {
		if !c.writesAfter(k) {
			continue
		}
		for cb := block; cb < end; cb += sched.Stride(k + 1) {
			if n, ok := r.RemoveFile(pario.CheckpointName(c.dir(), k, cb)); ok {
				files++
				bytes += n
			}
		}
	}
	if files == 0 {
		return
	}
	if rep != nil {
		rep.CheckpointsGCed += files
		rep.CheckpointGCBytes += bytes
	}
	r.Tracer().Instant("ckpt:gc", r.Clock(),
		obs.I("block", int64(block)), obs.I("round", int64(round)),
		obs.I("files", int64(files)), obs.I("bytes", bytes))
}

// read loads and validates the checkpoint of block at round k. A
// missing file, read failure, framing/CRC damage, or a block-id
// mismatch all return nil — the caller probes older rounds or falls
// back to recompute. The decode cost is charged to the rank's clock.
func (c *Checkpoint) read(r *mpsim.Rank, k, block int) (*mscomplex.Complex, int64) {
	name := pario.CheckpointName(c.dir(), k, block)
	size, err := r.FileSize(name)
	if err != nil {
		return nil, 0
	}
	data, err := r.IndependentRead(name, 0, int(size))
	if err != nil {
		return nil, 0
	}
	id, ms, err := pario.DecodeCheckpoint(data)
	if err != nil || id != block {
		r.Tracer().Instant("fault:ckpt_corrupt", r.Clock(),
			obs.I("block", int64(block)), obs.I("round", int64(k)))
		return nil, 0
	}
	r.Compute(vtime.Work{BytesCoded: size})
	return ms, size
}

// restore serves the complex block carries entering the given round
// from the newest valid checkpoint covering it: it probes rounds
// round-1 down to 0 for a checkpoint of block, and on a hit replays any
// later rounds locally (members recovered recursively, checkpoint
// first). ok is false when no checkpoint validates — including when no
// Checkpoint policy is configured — and the caller should rebuild.
func restore(r *mpsim.Rank, sched Schedule, nblocks, block, round int, opts Options) (*mscomplex.Complex, bool, error) {
	c := opts.Checkpoint
	if c == nil {
		return nil, false, nil
	}
	start := r.Clock()
	for k := round - 1; k >= 0; k-- {
		if !c.writesAfter(k) || block%sched.Stride(k+1) != 0 {
			continue
		}
		ms, n := c.read(r, k, block)
		if ms == nil {
			continue
		}
		// Replay rounds k+1..round-1 of block's subtree: glue each
		// group member in member order and re-simplify, exactly as the
		// original merge did, so the result matches the lost state.
		for rr := k + 1; rr < round; rr++ {
			for _, g := range sched.RoundGroups(nblocks, rr) {
				if g.Root != block {
					continue
				}
				for _, m := range g.Members {
					if m == g.Root {
						continue
					}
					other, err := Recover(r, sched, nblocks, m, rr, opts)
					if err != nil {
						return nil, false, err
					}
					workBefore := ms.Work
					ms.Glue(other)
					r.Compute(workDelta(ms.Work, workBefore))
				}
				workBefore := ms.Work
				ms.Simplify(mscomplex.SimplifyOptions{Threshold: opts.Threshold})
				next := ms.Compact()
				r.Compute(workDelta(next.Work, workBefore))
				ms = next
			}
		}
		if opts.Report != nil {
			opts.Report.CheckpointRestores++
			opts.Report.CheckpointBytesRead += n
			end := block + sched.Stride(k+1)
			if end > nblocks {
				end = nblocks
			}
			for b := block; b < end; b++ {
				opts.Report.RestoredBlocks = append(opts.Report.RestoredBlocks, b)
			}
		}
		r.Tracer().Span("ckpt:restore", start, r.Clock(),
			obs.I("block", int64(block)), obs.I("round", int64(round)),
			obs.I("from_round", int64(k)), obs.I("bytes", n))
		return ms, true, nil
	}
	if opts.Report != nil {
		opts.Report.CheckpointFallbacks++
	}
	r.Tracer().Instant("fault:ckpt_fallback", r.Clock(),
		obs.I("block", int64(block)), obs.I("round", int64(round)))
	return nil, false, nil
}

// Recover returns the complex block carries entering the given round:
// restored from the newest valid checkpoint when one validates, rebuilt
// deterministically from source data otherwise.
func Recover(r *mpsim.Rank, sched Schedule, nblocks, block, round int, opts Options) (*mscomplex.Complex, error) {
	ms, ok, err := restore(r, sched, nblocks, block, round, opts)
	if err != nil {
		return nil, err
	}
	if ok {
		return ms, nil
	}
	return rebuild(r, sched, nblocks, block, round, opts)
}
