// Package pipeline drives the paper's Algorithm 1 end to end on a
// virtual cluster: decompose the domain, read data blocks collectively,
// compute the discrete gradient and local MS complex per block, simplify
// it, run the configured merge rounds, and write the surviving complex
// blocks with a footer index. It reports the same stage decomposition
// the paper's figures use: read, compute, merge, write.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"parms/internal/cube"
	"parms/internal/fault"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/vtime"
)

// Params configures one pipeline run.
type Params struct {
	// File is the raw volume's name in the cluster filesystem.
	File string
	// Dims and DType describe the raw volume.
	Dims  grid.Dims
	DType grid.DType
	// Blocks is the number of decomposition blocks; 0 means one block
	// per process.
	Blocks int
	// Radices is the merge schedule (one entry per round, each 2, 4 or
	// 8); empty means no merging.
	Radices []int
	// Persistence is the absolute simplification threshold applied per
	// block and after every merge round.
	Persistence float32
	// OutFile names the output file; empty means "<File>.msc".
	OutFile string
	// KeepComplexes retains the final complexes in the Result.
	KeepComplexes bool
	// Measured switches compute-stage timing from the modeled cost
	// model to real wall-clock time (for shared-memory speedup runs).
	Measured bool
	// Trace bounds V-path enumeration.
	Trace mscomplex.TraceOptions
	// MergeTimeout is the virtual-time budget (seconds) a merge-group
	// root waits for each member payload before excluding the member
	// and recovering its blocks deterministically. 0 selects a default
	// of defaultMergeTimeout seconds when the cluster carries a fault
	// plan, and plain blocking receives otherwise (the fault-free fast
	// path).
	MergeTimeout float64
	// CheckpointEvery, when >= 1, makes merge-group roots persist their
	// merged complex to the simulated filesystem after every
	// CheckpointEvery-th round (PCSFM2-framed, CRC-verified), and makes
	// fault recovery restore lost subtrees from the newest valid
	// checkpoint instead of recomputing them from source data. 0
	// disables checkpointing (the default).
	CheckpointEvery int
	// CheckpointDir is the checkpoint directory on the simulated
	// filesystem; empty selects "ckpt".
	CheckpointDir string
	// CheckpointGC reclaims superseded checkpoint rounds: once a root's
	// newer state is safely on disk, the older checkpoints it covers
	// are deleted (see merge.Checkpoint.GC).
	CheckpointGC bool
	// Migrate moves a crashed rank's blocks onto healthy ranks through
	// the run's ownership table instead of recovering them in place on
	// the restarted rank (see merge.Options.Migrate). Off by default.
	Migrate bool
	// AvoidRanks seeds the ownership table's initial rotation away from
	// the listed ranks — typically a previous run's
	// analyze Recommendation.AvoidRanks — so known stragglers start the
	// run owning no blocks. They still participate in all collectives.
	AvoidRanks []int
	// Source, when non-nil, supplies each block's samples directly
	// instead of reading File from storage — the in-situ mode of the
	// paper's future work (section VII-B), where the simulation that
	// produced the data hands its resident domain partition to the
	// analysis. The read stage then costs nothing. File and DType are
	// ignored; Dims still describes the global domain.
	Source func(b grid.Block) (*grid.Volume, error)
}

// StageTimes is the virtual duration of each pipeline stage, the
// decomposition plotted in the paper's Figures 9 and 10.
type StageTimes struct {
	Read    float64
	Compute float64
	Merge   float64
	Write   float64
	Total   float64
}

// Result summarizes one run. Stage times are in modeled seconds (max
// over ranks, measured at collective stage boundaries, exactly as an
// MPI_Wtime-after-barrier trace would report them).
type Result struct {
	Procs  int
	Blocks int
	Times  StageTimes
	// Rounds holds the per-round merge statistics.
	Rounds []merge.RoundStats
	// OutputBlocks is the number of complex blocks written.
	OutputBlocks int
	// OutputBytes is the size of the output file.
	OutputBytes int64
	// Nodes and Arcs total the alive elements across output blocks.
	Nodes [4]int
	Arcs  int
	// RawNodes totals alive nodes across blocks after per-block
	// simplification but before any merging — the size the output
	// would have had without stage two.
	RawNodes int
	// BytesSent totals the payload bytes sent across ranks, collective
	// traffic included (collectives send through Rank.Send too).
	BytesSent int64
	// ComputeMean is the mean per-rank duration of the compute stage;
	// Times.Compute is the max. Their ratio measures load imbalance
	// under the block-cyclic assignment (section IV-A).
	ComputeMean float64
	// Truncated counts (saddle, saddle) pairs whose arc multiplicity
	// exceeded the tracer's MaxArcsPerPair and was clamped, summed over
	// the compute stage's blocks (mscomplex.TraceResult.Truncated).
	Truncated int
	// Complexes holds the final complexes by block id when
	// Params.KeepComplexes is set.
	Complexes map[int]*mscomplex.Complex
	// FaultReport aggregates the fault events observed across all
	// ranks: crashes survived, receive timeouts, corrupted payloads
	// rejected, blocks lost and recovered (restored from checkpoint vs
	// recomputed, with bytes read vs cells recomputed), and I/O
	// retries. It is zero-valued in a fault-free run.
	FaultReport fault.Report
	// Trace is the per-rank span trace of the run, with its message
	// flows, echoed from the cluster's tracer. It is nil when the
	// cluster carries no tracer.
	Trace *obs.Tracer
}

// StageSpanNames are the span names that tile each rank's virtual
// timeline in a traced run, in timeline order: every stage span is
// followed by the sync span of the collective boundary that closes it.
// The "boundary" attribute of each sync span carries the allreduced
// stage-boundary timestamp the StageTimes decomposition is computed
// from, so Times.X == boundary(sync:X) - boundary(previous sync).
var StageSpanNames = []string{
	"sync:init", "read", "sync:read", "compute", "sync:compute",
	"merge", "sync:merge", "write", "sync:write",
}

// defaultMergeTimeout is the per-member receive budget (virtual
// seconds) used when a fault plan is active but Params.MergeTimeout is
// unset. Payload transfer and serialization cost milliseconds at the
// modeled scales, so one second distinguishes "lost" from "slow" with a
// wide margin.
const defaultMergeTimeout = 1.0

// Run executes the pipeline on the cluster and returns the combined
// result. It must be called from a single goroutine; it runs the rank
// program on every virtual rank internally.
func Run(c *mpsim.Cluster, p Params) (*Result, error) {
	procs := c.Procs()
	nblocks := p.Blocks
	if nblocks == 0 {
		nblocks = procs
	}
	if p.OutFile == "" {
		p.OutFile = p.File + ".msc"
	}
	dec, err := grid.Decompose(p.Dims, nblocks)
	if err != nil {
		return nil, err
	}
	sched := merge.Schedule{Radices: p.Radices}
	if err := sched.Validate(nblocks); err != nil {
		return nil, err
	}

	res := &Result{Procs: procs, Blocks: nblocks}
	if p.KeepComplexes {
		res.Complexes = make(map[int]*mscomplex.Complex)
	}
	c.FS().Create(p.OutFile)
	var mu sync.Mutex

	_, err = c.Run(func(r *mpsim.Rank) error {
		return rankProgram(r, c, p, dec, sched, res, &mu)
	})
	if err != nil {
		return nil, err
	}
	res.Trace = c.Tracer()
	return res, nil
}

func rankProgram(r *mpsim.Rank, c *mpsim.Cluster, p Params, dec *grid.Decomposition,
	sched merge.Schedule, res *Result, mu *sync.Mutex) error {

	nblocks := dec.NumBlocks()
	// Every rank builds an identical replica of the ownership table;
	// Execute applies only deterministic, collectively-agreed updates,
	// so the replicas never diverge.
	owners := grid.NewOwnerTableAvoiding(nblocks, r.Size(), p.AvoidRanks)
	myBlocks := owners.Blocks(r.ID())
	maxPerRank := 0
	for rank := 0; rank < r.Size(); rank++ {
		if n := len(owners.Blocks(rank)); n > maxPerRank {
			maxPerRank = n
		}
	}

	report := &fault.Report{}
	// Fault tolerance engages when the cluster carries a fault plan or
	// the caller asked for bounded merge receives explicitly.
	ft := c.Faults() != nil || p.MergeTimeout > 0
	timeout := p.MergeTimeout
	if timeout == 0 && c.Faults() != nil {
		timeout = defaultMergeTimeout
	}

	// Each stage becomes one span per rank ending at the rank's local
	// clock when it enters the boundary collective, then the collective
	// itself becomes a sync span — so the spans tile each rank's
	// virtual timeline exactly, and the max stage-span end across ranks
	// IS the allreduced boundary that StageTimes is computed from (the
	// boundary is also stamped on the sync span for direct readback).
	tr := r.Tracer()
	stageStart := r.Clock()
	boundary := func(stage string, attrs ...obs.Attr) float64 {
		end := r.Clock()
		t := r.AllreduceMaxTime()
		if tr.Enabled() {
			name := "init"
			if stage != "" {
				tr.Span(stage, stageStart, end, attrs...)
				name = stage
			}
			tr.Span("sync:"+name, end, r.Clock(), obs.F("boundary", t))
		}
		stageStart = r.Clock()
		return t
	}

	t0 := boundary("")

	// --- Read data blocks (section IV-B), or receive them in situ ---
	vols := make(map[int]*grid.Volume, len(myBlocks))
	if p.Source != nil {
		for _, bid := range myBlocks {
			b := dec.Blocks[bid]
			vol, err := p.Source(b)
			if err != nil {
				return err
			}
			if vol.Dims != b.Dims() {
				return fmt.Errorf("pipeline: in-situ source returned %v for block %d, want %v",
					vol.Dims, bid, b.Dims())
			}
			vols[bid] = vol
		}
	} else {
		for i := 0; i < maxPerRank; i++ {
			var bytes int64
			bid := -1
			ioStart := r.Clock()
			if i < len(myBlocks) {
				bid = myBlocks[i]
				b := dec.Blocks[bid]
				vol, retries, err := pario.ReadBlockVolumeStats(c.FS(), p.File, p.Dims, p.DType, b)
				report.IORetries += retries
				if retries > 0 {
					tr.Instant("fault:io_retry", r.Clock(),
						obs.I("block", int64(bid)), obs.I("retries", int64(retries)))
				}
				if err != nil {
					return err
				}
				vols[b.ID] = vol
				bytes = pario.BlockBytes(p.DType, b)
			}
			r.IOAccount(bytes)
			if tr.Enabled() && bid >= 0 {
				tr.Span("read:block", ioStart, r.Clock(),
					obs.I("id", int64(bid)), obs.I("bytes", bytes))
			}
		}
	}
	if r.Checkpoint("read") {
		// Crash-restart during the read stage: every volume this rank
		// read is gone. The compute stage below skips the missing
		// blocks; the merge stage recovers them deterministically.
		for bid := range vols {
			delete(vols, bid)
		}
		report.RankCrashes++
	}
	t1 := boundary("read", obs.I("blocks", int64(len(vols))))

	// --- Compute gradient, MS complex, and simplify per block
	// (sections IV-C to IV-E) ---
	complexes := make(map[int]*mscomplex.Complex, len(myBlocks))
	truncated := 0
	computeStart := float64(r.Clock())
	for _, bid := range myBlocks {
		vol, ok := vols[bid]
		if !ok {
			// Lost to a crash at the read checkpoint; the merge stage
			// recomputes it on demand.
			continue
		}
		b := dec.Blocks[bid]
		start := time.Now()
		blockStart := r.Clock()
		cc := cube.New(p.Dims, b, vol)
		field := gradient.Compute(cc, dec)
		traced := mscomplex.FromField(field, dec, p.Trace)
		truncated += traced.Truncated
		ms := traced.Complex
		ms.Simplify(mscomplex.SimplifyOptions{Threshold: p.Persistence})
		compacted := ms.Compact() // carries ms.Work plus its own ops
		complexes[bid] = compacted
		delete(vols, bid)
		w := field.Work
		w.Add(compacted.Work)
		if p.Measured {
			r.Elapse(time.Since(start).Seconds())
		} else {
			r.Compute(w)
		}
		if tr.Enabled() {
			// One nested span per pointer-jumping sweep, placed at the
			// start of the block's compute window with modeled
			// durations, so the trace shows the convergence cascade.
			sweepAt := blockStart
			for si, sw := range traced.Kernel.SweepWrites {
				dur := vtime.Time(float64(sw) * r.Machine().SweepCost)
				tr.Span("kernel:sweep", sweepAt, sweepAt+dur,
					obs.I("id", int64(bid)), obs.I("sweep", int64(si)),
					obs.I("writes", sw))
				sweepAt += dur
			}
			n, a := compacted.AliveCounts()
			tr.Span("block", blockStart, r.Clock(),
				obs.I("id", int64(bid)),
				obs.I("nodes", int64(n[0]+n[1]+n[2]+n[3])), obs.I("arcs", int64(a)),
				obs.I("path_steps", w.PathSteps), obs.I("cells", w.CellsVisited),
				obs.I("sweeps", int64(traced.Kernel.Sweeps)),
				obs.I("cancellations", w.Cancellations))
		}
	}
	if r.Checkpoint("compute") {
		// Crash-restart during the compute stage: the per-block
		// complexes are gone; merge recovery rebuilds them.
		for bid := range complexes {
			delete(complexes, bid)
		}
		report.RankCrashes++
	}
	computeLocal := float64(r.Clock()) - computeStart
	computeMean := r.AllreduceFloat64(computeLocal, "sum") / float64(r.Size())
	t2 := boundary("compute", obs.I("blocks", int64(len(complexes))))
	rawLocal := 0
	for _, ms := range complexes {
		rawLocal += ms.NumAliveNodes()
	}
	rawNodes := int(r.AllreduceFloat64(float64(rawLocal), "sum"))

	// --- Merge rounds (section IV-F) ---
	mopts := merge.Options{
		Threshold: p.Persistence, Report: report, Owners: owners,
		Migrate: p.Migrate,
	}
	if p.CheckpointEvery > 0 {
		mopts.Checkpoint = &merge.Checkpoint{
			Dir: p.CheckpointDir, Every: p.CheckpointEvery, GC: p.CheckpointGC,
		}
	}
	if ft {
		mopts.Timeout = vtime.Time(timeout)
		mopts.Recompute = recomputeBlock(c, p, dec, report)
	}
	rounds, err := merge.Execute(r, sched, nblocks, complexes, mopts)
	if err != nil {
		return err
	}
	t3 := boundary("merge", obs.I("rounds", int64(len(rounds))))

	// --- Write MS complex blocks (section IV-G) ---
	if r.Checkpoint("write") {
		// Crash-restart entering the write stage: surviving complexes
		// are rebuilt one by one inside writeOutput.
		for bid := range complexes {
			delete(complexes, bid)
		}
		report.RankCrashes++
	}
	outBytes, entries, err := writeOutput(r, c, p.OutFile, nblocks, sched, owners, complexes, mopts)
	if err != nil {
		return err
	}
	t4 := boundary("write", obs.I("bytes", outBytes))

	truncTotal := int(r.AllreduceFloat64(float64(truncated), "sum"))
	var nodeTotals [4]int
	arcTotal := 0
	var localNodes [4]int
	localArcs := 0
	for _, ms := range complexes {
		n, a := ms.AliveCounts()
		for i := range n {
			localNodes[i] += n[i]
		}
		localArcs += a
	}
	for i := 0; i < 4; i++ {
		nodeTotals[i] = int(r.AllreduceFloat64(float64(localNodes[i]), "sum"))
	}
	arcTotal = int(r.AllreduceFloat64(float64(localArcs), "sum"))
	bytesSent := int64(r.AllreduceFloat64(float64(r.BytesSent()), "sum"))

	// Combine the per-rank fault reports: counters by allreduce, block
	// lists gathered at rank 0 and normalized there.
	report.IORetries += int(r.IORetries())
	agg := fault.Report{
		RankCrashes:         int(r.AllreduceFloat64(float64(report.RankCrashes), "sum")),
		Timeouts:            int(r.AllreduceFloat64(float64(report.Timeouts), "sum")),
		Corruptions:         int(r.AllreduceFloat64(float64(report.Corruptions), "sum")),
		Recomputes:          int(r.AllreduceFloat64(float64(report.Recomputes), "sum")),
		RecomputeCells:      int64(r.AllreduceFloat64(float64(report.RecomputeCells), "sum")),
		CheckpointRestores:  int(r.AllreduceFloat64(float64(report.CheckpointRestores), "sum")),
		CheckpointBytesRead: int64(r.AllreduceFloat64(float64(report.CheckpointBytesRead), "sum")),
		CheckpointFallbacks: int(r.AllreduceFloat64(float64(report.CheckpointFallbacks), "sum")),
		IORetries:           int(r.AllreduceFloat64(float64(report.IORetries), "sum")),
		TimeoutWaitSeconds:  r.AllreduceFloat64(report.TimeoutWaitSeconds, "sum"),
		Migrations:          int(r.AllreduceFloat64(float64(report.Migrations), "sum")),
		CheckpointsGCed:     int(r.AllreduceFloat64(float64(report.CheckpointsGCed), "sum")),
		CheckpointGCBytes:   int64(r.AllreduceFloat64(float64(report.CheckpointGCBytes), "sum")),
	}
	var listMsg []byte
	for _, list := range [][]int{report.RecoveredBlocks, report.RestoredBlocks, report.MigratedBlocks} {
		listMsg = appendU64(listMsg, uint64(len(list)))
		for _, b := range list {
			listMsg = appendU64(listMsg, uint64(b))
		}
	}
	for _, msg := range r.Gather(0, listMsg) {
		o := 0
		for _, dst := range []*[]int{&agg.RecoveredBlocks, &agg.RestoredBlocks, &agg.MigratedBlocks} {
			n := int(u64At(msg, o))
			o += 8
			for j := 0; j < n; j++ {
				*dst = append(*dst, int(u64At(msg, o)))
				o += 8
			}
		}
	}
	agg.Normalize()

	if r.ID() == 0 {
		mu.Lock()
		res.Times = StageTimes{
			Read:    t1 - t0,
			Compute: t2 - t1,
			Merge:   t3 - t2,
			Write:   t4 - t3,
			Total:   t4 - t0,
		}
		res.Rounds = rounds
		res.OutputBlocks = len(entries)
		res.OutputBytes = outBytes
		res.Nodes = nodeTotals
		res.Arcs = arcTotal
		res.RawNodes = rawNodes
		res.ComputeMean = computeMean
		res.BytesSent = bytesSent
		res.Truncated = truncTotal
		res.FaultReport = agg
		mu.Unlock()
	}
	if res.Complexes != nil {
		mu.Lock()
		for bid, ms := range complexes {
			res.Complexes[bid] = ms
		}
		mu.Unlock()
	}
	return nil
}

// recomputeBlock returns the merge recovery callback: rebuild one
// block's simplified, compacted complex from source data. The compute
// stage is deterministic, so the result is identical to the complex the
// block originally produced. The re-read and recompute costs are
// charged to the rank the callback is invoked with, the I/O retries and
// recomputed cells to rep.
func recomputeBlock(c *mpsim.Cluster, p Params, dec *grid.Decomposition, rep *fault.Report) func(rk *mpsim.Rank, bid int) (*mscomplex.Complex, error) {

	return func(rk *mpsim.Rank, bid int) (*mscomplex.Complex, error) {
		b := dec.Blocks[bid]
		var vol *grid.Volume
		if p.Source != nil {
			v, err := p.Source(b)
			if err != nil {
				return nil, err
			}
			vol = v
		} else {
			v, retries, err := pario.ReadBlockVolumeStats(c.FS(), p.File, p.Dims, p.DType, b)
			rep.IORetries += retries
			if retries > 0 {
				rk.Tracer().Instant("fault:io_retry", rk.Clock(),
					obs.I("block", int64(bid)), obs.I("retries", int64(retries)))
			}
			if err != nil {
				return nil, err
			}
			// An independent (non-collective) re-read: this rank alone
			// pays the transfer time.
			nbytes := pario.BlockBytes(p.DType, b)
			rk.Elapse(float64(rk.Machine().IOTime(nbytes, nbytes)))
			vol = v
		}
		cc := cube.New(p.Dims, b, vol)
		field := gradient.Compute(cc, dec)
		ms := mscomplex.FromField(field, dec, p.Trace).Complex
		ms.Simplify(mscomplex.SimplifyOptions{Threshold: p.Persistence})
		compacted := ms.Compact()
		w := field.Work
		w.Add(compacted.Work)
		rk.Compute(w)
		// The gradient cells live in field.Work, not the complex's
		// ledger — record them here so the recompute budget is visible.
		rep.RecomputeCells += field.Work.CellsVisited
		return compacted, nil
	}
}

// writeOutput performs the collective write of surviving blocks plus the
// footer, and returns the file size and index (index only on rank 0).
// Each surviving block is written by its current owner per the
// ownership table — the rank holding its merged complex even after
// migrations. A surviving block missing from complexes (lost to a crash
// at the write checkpoint) is recovered through mopts — newest valid
// merge checkpoint first, recompute fallback — before serialization.
func writeOutput(r *mpsim.Rank, c *mpsim.Cluster, name string, nblocks int,
	sched merge.Schedule, owners *grid.OwnerTable, complexes map[int]*mscomplex.Complex, mopts merge.Options) (int64, []pario.IndexEntry, error) {

	survivors := sched.Survivors(nblocks)
	maxPerRank := 0
	perRank := make([][]int, r.Size())
	for _, b := range survivors {
		perRank[owners.Owner(b)] = append(perRank[owners.Owner(b)], b)
	}
	for _, list := range perRank {
		if len(list) > maxPerRank {
			maxPerRank = len(list)
		}
	}
	mine := perRank[r.ID()]
	sort.Ints(mine)

	// Serialize my blocks and gather (block, size, region) records at
	// rank 0 to compute offsets and the footer index.
	payloads := make(map[int][]byte, len(mine))
	var sizeMsg []byte
	for _, bid := range mine {
		ms, ok := complexes[bid]
		if !ok {
			if !mopts.CanRecover() {
				return 0, nil, fmt.Errorf("pipeline: rank %d missing surviving block %d", r.ID(), bid)
			}
			recovered, err := merge.Recover(r, sched, nblocks, bid, len(sched.Radices), mopts)
			if err != nil {
				return 0, nil, fmt.Errorf("pipeline: recover surviving block %d: %w", bid, err)
			}
			ms = recovered
			complexes[bid] = ms
		}
		payload := ms.Serialize()
		payloads[bid] = payload
		sizeMsg = appendU64(sizeMsg, uint64(bid))
		sizeMsg = appendU64(sizeMsg, uint64(len(payload)))
		sizeMsg = appendU64(sizeMsg, uint64(mpsim.Checksum(payload)))
		sizeMsg = appendU64(sizeMsg, uint64(len(ms.Region)))
		for _, rb := range ms.Region {
			sizeMsg = appendU64(sizeMsg, uint64(rb))
		}
	}
	gathered := r.Gather(0, sizeMsg)

	// Rank 0 assigns offsets in survivor order and broadcasts.
	var offerMsg []byte
	var entries []pario.IndexEntry
	if r.ID() == 0 {
		sizes := make(map[int]int64, len(survivors))
		crcs := make(map[int]uint32, len(survivors))
		regions := make(map[int][]int32, len(survivors))
		for _, msg := range gathered {
			for o := 0; o+32 <= len(msg); {
				bid := int(u64At(msg, o))
				sizes[bid] = int64(u64At(msg, o+8))
				crcs[bid] = uint32(u64At(msg, o+16))
				nRegion := int(u64At(msg, o+24))
				o += 32
				reg := make([]int32, nRegion)
				for j := 0; j < nRegion; j++ {
					reg[j] = int32(u64At(msg, o))
					o += 8
				}
				regions[bid] = reg
			}
		}
		off := int64(0)
		for _, bid := range survivors {
			sz, ok := sizes[bid]
			if !ok {
				return 0, nil, fmt.Errorf("pipeline: no size reported for block %d", bid)
			}
			entries = append(entries, pario.IndexEntry{
				BlockID: int32(bid), Offset: off, Size: sz, CRC: crcs[bid], Region: regions[bid],
			})
			offerMsg = appendU64(offerMsg, uint64(bid))
			offerMsg = appendU64(offerMsg, uint64(off))
			off += sz
		}
	}
	offerMsg = r.Bcast(0, offerMsg)
	offsets := make(map[int]int64)
	for o := 0; o+16 <= len(offerMsg); o += 16 {
		offsets[int(u64At(offerMsg, o))] = int64(u64At(offerMsg, o+8))
	}

	// Collective write rounds: every rank participates in every round,
	// contributing a block payload if it has one left, or a null write.
	tr := r.Tracer()
	for i := 0; i < maxPerRank; i++ {
		var data []byte
		var off int64
		bid := int64(-1)
		if i < len(mine) {
			data = payloads[mine[i]]
			off = offsets[mine[i]]
			bid = int64(mine[i])
		}
		wStart := r.Clock()
		if err := r.CollectiveWrite(name, off, data); err != nil {
			return 0, nil, err
		}
		if tr.Enabled() && bid >= 0 {
			tr.Span("write:block", wStart, r.Clock(),
				obs.I("id", bid), obs.I("bytes", int64(len(data))))
		}
	}

	// Rank 0 appends the footer in one more collective round.
	var footer []byte
	var footerOff int64
	if r.ID() == 0 {
		for i := range entries {
			footerOff = entries[i].Offset + entries[i].Size
		}
		footer = pario.EncodeFooter(entries)
	}
	if err := r.CollectiveWrite(name, footerOff, footer); err != nil {
		return 0, nil, err
	}
	size, err := c.FS().Size(name)
	if err != nil {
		return 0, nil, err
	}
	return size, entries, nil
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func u64At(b []byte, off int) uint64 {
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[off+i])
	}
	return v
}
