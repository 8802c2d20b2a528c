// Package parms (PARallel Morse-Smale) computes the 1-skeleton of the
// Morse-Smale complex of a 3D scalar field with the two-stage parallel
// algorithm of Gyulassy, Pascucci, Peterka and Ross, "The Parallel
// Computation of Morse-Smale Complexes" (IPDPS 2012): per-block discrete
// gradient and MS complex computation with boundary-restricted pairing,
// persistence simplification, and configurable rounds of radix-2/4/8
// merging that glue block complexes into global ones.
//
// The original system ran on MPI over the IBM Blue Gene/P. This library
// executes the same algorithm on a virtual distributed-memory cluster:
// one goroutine per rank, message passing with MPI semantics, and
// per-rank virtual clocks driven by a calibrated LogGP-style cost model
// of the machine (see DESIGN.md). Results — the complexes themselves —
// are real; stage timings are modeled so the paper's scaling studies can
// be regenerated on a workstation.
//
// Quick start:
//
//	vol := parms.Sinusoid(128, 8)
//	res, err := parms.Compute(vol, parms.Options{Procs: 64, FullMerge: true, Persistence: 0.01})
//	...
//	ms := res.Merged()
//	fmt.Println(ms.AliveCounts())
package parms

import (
	"fmt"

	"parms/internal/analysis"
	"parms/internal/fault"
	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/obs"
	"parms/internal/pipeline"
	"parms/internal/serial"
	"parms/internal/synth"
	"parms/internal/vtime"
)

// Core data types, aliased from the implementation packages so that all
// functionality is reachable through this one import.
type (
	// Volume is a scalar field sampled at the vertices of a regular 3D
	// grid.
	Volume = grid.Volume
	// Dims is a grid extent in vertices.
	Dims = grid.Dims
	// DType identifies on-disk sample formats.
	DType = grid.DType
	// Complex is the 1-skeleton of a Morse-Smale complex.
	Complex = mscomplex.Complex
	// Node is a critical point of the complex.
	Node = mscomplex.Node
	// Arc is a V-path connecting two critical points.
	Arc = mscomplex.Arc
	// Machine is a cost-model profile of the simulated system.
	Machine = vtime.Machine
	// StageTimes decomposes a run into read/compute/merge/write.
	StageTimes = pipeline.StageTimes
	// RoundStats reports one merge round.
	RoundStats = merge.RoundStats
	// Subgraph summarizes an extracted feature subgraph.
	Subgraph = analysis.Subgraph
	// ArcFilter selects arcs during feature extraction.
	ArcFilter = analysis.ArcFilter
	// FaultPlan is a seeded, deterministic fault-injection schedule:
	// rank crashes at pipeline stages, dropped/duplicated/delayed/
	// corrupted point-to-point messages, and transient or permanent
	// filesystem failures.
	FaultPlan = fault.Plan
	// FaultReport tallies the fault events a run observed and survived.
	FaultReport = fault.Report
	// Tracer is the per-rank virtual-time span trace of an observed
	// run; export it with WriteChromeTrace (Perfetto) or summarize it
	// with StageStats.
	Tracer = obs.Tracer
	// StageStat summarizes one span name's per-rank durations
	// (p50/p95/max and the max/mean imbalance ratio).
	StageStat = obs.StageStat
)

// WriteStageStats renders a stage summary table (see Tracer.StageStats).
var WriteStageStats = obs.WriteStageStats

// StageSpanNames are the top-level span names that tile each rank's
// timeline in a traced run, in timeline order.
var StageSpanNames = pipeline.StageSpanNames

// NewFaultPlan creates an empty fault plan; all injection draws are
// derived from the seed, so equal plans reproduce equal runs.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// Sample formats supported by the raw-volume reader (section IV-B).
const (
	U8  = grid.U8
	F32 = grid.F32
	F64 = grid.F64
)

// NewVolume allocates a zero-filled volume.
func NewVolume(dims Dims) *Volume { return grid.NewVolume(dims) }

// Synthetic and proxy datasets (see DESIGN.md for the substitutions).
var (
	// Sinusoid is the paper's synthetic size/complexity study field.
	Sinusoid = synth.Sinusoid
	// SinusoidDims is Sinusoid on a non-cubic grid.
	SinusoidDims = synth.SinusoidDims
	// Hydrogen is the Figure 4 stability-study proxy.
	Hydrogen = synth.Hydrogen
	// Jet is the combustion mixture-fraction proxy (section VI-D1).
	Jet = synth.Jet
	// RayleighTaylor is the mixing-fluids density proxy (section VI-D2).
	RayleighTaylor = synth.RayleighTaylor
	// PorousSolid is the Figure 1 filament-extraction workload.
	PorousSolid = synth.PorousSolid
	// Ramp is a monotone field with trivial topology.
	Ramp = synth.Ramp
	// RandomField is seeded uniform noise, the worst case for feature
	// counts.
	RandomField = synth.Random
)

// BlueGeneP is the default machine profile, shaped after the paper's
// test system.
func BlueGeneP() *Machine { return vtime.BlueGeneP() }

// Options configures a parallel computation.
type Options struct {
	// Procs is the number of ranks of the virtual cluster (default 1).
	Procs int
	// Blocks is the number of decomposition blocks (default: one per
	// rank, the configuration used in all the paper's experiments).
	Blocks int
	// Radices is the merge schedule. Leave nil and set FullMerge for
	// the paper's recommended radix-8-first full merge, or set explicit
	// radices (each 2, 4 or 8) for a partial merge.
	Radices []int
	// FullMerge selects merge.Full(Blocks) when Radices is nil.
	FullMerge bool
	// Persistence is the simplification threshold as a fraction of the
	// data range (0.01 = the paper's "1% persistence simplification").
	Persistence float64
	// Machine overrides the cost profile (default BlueGeneP).
	Machine *Machine
	// MaxParallel bounds how many rank goroutines execute on the host
	// concurrently (0 = unbounded). Virtual times are unaffected.
	MaxParallel int
	// Measured switches compute timing from the cost model to real
	// wall-clock time.
	Measured bool
	// Faults injects the given fault plan into the run. The pipeline
	// then runs fault-tolerantly: merge receives are bounded, corrupted
	// payloads are rejected by checksum, and lost blocks are recovered
	// by deterministic recomputation (see Result.FaultReport).
	Faults *FaultPlan
	// MergeTimeout overrides the per-member merge receive budget in
	// virtual seconds (default 1s when Faults is set). Setting it
	// without Faults also enables the fault-tolerant merge path.
	MergeTimeout float64
	// CheckpointEvery, when >= 1, persists each merge-group root's
	// post-round complex to the simulated filesystem every
	// CheckpointEvery rounds (checksummed PCSFM2 frames), and fault
	// recovery then restores lost subtrees from the newest valid
	// checkpoint — a read — before falling back to recomputation (see
	// FaultReport.CheckpointRestores vs Recomputes). 0 disables
	// checkpointing.
	CheckpointEvery int
	// CheckpointDir is the checkpoint directory on the simulated
	// filesystem (default "ckpt").
	CheckpointDir string
	// CheckpointGC deletes checkpoints superseded by newer rounds as
	// soon as the newer round is safely on disk, bounding checkpoint
	// storage (see FaultReport.CheckpointsGCed).
	CheckpointGC bool
	// Migrate moves a crashed rank's blocks to healthy ranks chosen by
	// load through the run's block ownership table; the new owners
	// restore the blocks from the dead rank's checkpoints or recompute
	// them (see FaultReport.Migrations). Off by default — the per-round
	// failure exchange costs one collective, so fault-free modeled
	// times are unchanged unless asked for.
	Migrate bool
	// AvoidRanks seeds the ownership table's initial block rotation
	// away from the listed ranks (typically a prior run's
	// Recommendation.AvoidRanks from msinsight), so known stragglers
	// start the run owning no blocks.
	AvoidRanks []int
	// Trace enables per-rank span tracing with message flows. The run
	// then populates Result.Trace; export it with WriteChromeTrace.
	// When false (the default) every instrumentation hook is a nil
	// no-op.
	Trace bool
}

// Result is the outcome of a parallel computation.
type Result struct {
	// Times holds the modeled stage durations (seconds).
	Times StageTimes
	// Rounds holds per-merge-round statistics.
	Rounds []RoundStats
	// Procs and Blocks echo the configuration.
	Procs, Blocks int
	// OutputBlocks is the number of complex blocks after merging.
	OutputBlocks int
	// OutputBytes is the size of the written output file.
	OutputBytes int64
	// Nodes counts alive critical points by Morse index across output
	// blocks; Arcs counts alive arcs.
	Nodes [4]int
	Arcs  int
	// BytesSent totals the payload bytes every rank sent, collective
	// traffic included (collectives send through Rank.Send too).
	BytesSent int64
	// Truncated counts (saddle, saddle) pairs whose arc multiplicity
	// exceeded the tracer's cap and was clamped, summed over blocks.
	Truncated int
	// Complexes holds the surviving complexes keyed by root block id.
	Complexes map[int]*Complex
	// FaultReport tallies the fault events observed across ranks
	// (zero-valued in a fault-free run).
	FaultReport FaultReport
	// Trace holds the per-rank span trace of the run, with its message
	// flows; nil unless Options.Trace was set.
	Trace *Tracer
}

// Merged returns the single output complex of a fully merged run, or
// the complex of the lowest surviving block otherwise.
func (r *Result) Merged() *Complex {
	best := -1
	for id := range r.Complexes {
		if best < 0 || id < best {
			best = id
		}
	}
	if best < 0 {
		return nil
	}
	return r.Complexes[best]
}

// TotalNodes returns the total critical point count across output
// blocks.
func (r *Result) TotalNodes() int {
	return r.Nodes[0] + r.Nodes[1] + r.Nodes[2] + r.Nodes[3]
}

// Compute runs the two-stage parallel algorithm on a volume.
func Compute(vol *Volume, opt Options) (*Result, error) {
	lo, hi := vol.Range()
	in := pipeline.Params{File: "volume.raw", Dims: vol.Dims, DType: vol.DType}
	return run(opt, in, lo, hi, vol.Bytes())
}

// ComputeInSitu runs the two-stage algorithm without a read stage: each
// block's samples are supplied directly by source, as when the analysis
// is embedded in the simulation that produced the data (the paper's
// in-situ plan, section VII-B). source receives the closed vertex box
// [lo, hi] of a block (including shared layers) and must return a volume
// of exactly that extent. rangeLo and rangeHi give the global value
// range the relative persistence threshold is scaled by.
func ComputeInSitu(dims Dims, source func(lo, hi [3]int) *Volume,
	rangeLo, rangeHi float32, opt Options) (*Result, error) {
	in := pipeline.Params{
		File: "in-situ",
		Dims: dims,
		Source: func(b grid.Block) (*Volume, error) {
			return source(b.Lo, b.Hi), nil
		},
	}
	return run(opt, in, rangeLo, rangeHi, nil)
}

// run builds the virtual cluster opt describes, completes in (which
// carries only the input: File, Dims, DType, Source) with the rest of
// opt, runs the pipeline and converts its result. A non-nil raw is
// stored as in.File on the cluster filesystem first. lo and hi are the
// value range the relative persistence threshold is scaled by.
func run(opt Options, in pipeline.Params, lo, hi float32, raw []byte) (*Result, error) {
	if opt.Procs <= 0 {
		opt.Procs = 1
	}
	var tracer *obs.Tracer
	if opt.Trace {
		tracer = obs.NewTracer(opt.Procs)
	}
	cluster, err := mpsim.New(mpsim.Config{
		Procs:       opt.Procs,
		Machine:     opt.Machine,
		MaxParallel: opt.MaxParallel,
		Faults:      opt.Faults,
		Trace:       tracer,
	})
	if err != nil {
		return nil, err
	}
	if raw != nil {
		cluster.FS().Put(in.File, raw)
	}
	in.Blocks = opt.Blocks
	if in.Blocks <= 0 {
		in.Blocks = opt.Procs
	}
	in.Radices = opt.Radices
	if in.Radices == nil && opt.FullMerge {
		in.Radices = merge.Full(in.Blocks).Radices
	}
	in.Persistence = float32(opt.Persistence * float64(hi-lo))
	in.KeepComplexes = true
	in.Measured = opt.Measured
	in.MergeTimeout = opt.MergeTimeout
	in.CheckpointEvery = opt.CheckpointEvery
	in.CheckpointDir = opt.CheckpointDir
	in.CheckpointGC = opt.CheckpointGC
	in.Migrate = opt.Migrate
	in.AvoidRanks = opt.AvoidRanks
	res, err := pipeline.Run(cluster, in)
	if err != nil {
		return nil, err
	}
	return &Result{
		Times:        res.Times,
		Rounds:       res.Rounds,
		Procs:        res.Procs,
		Blocks:       res.Blocks,
		OutputBlocks: res.OutputBlocks,
		OutputBytes:  res.OutputBytes,
		Nodes:        res.Nodes,
		Arcs:         res.Arcs,
		BytesSent:    res.BytesSent,
		Truncated:    res.Truncated,
		Complexes:    res.Complexes,
		FaultReport:  res.FaultReport,
		Trace:        res.Trace,
	}, nil
}

// ComputeSerial computes the complex of a whole volume in one block with
// no boundary restrictions — the paper's serial baseline. persistence is
// relative to the data range, as in Options.
func ComputeSerial(vol *Volume, persistence float64) *Complex {
	lo, hi := vol.Range()
	return serial.Compute(vol, float32(persistence*float64(hi-lo)))
}

// Simplify applies persistence simplification to a complex; threshold is
// relative to the given value range.
func Simplify(c *Complex, threshold float64, lo, hi float32) {
	c.Simplify(mscomplex.SimplifyOptions{Threshold: float32(threshold * float64(hi-lo))})
}

// Feature extraction queries (Figure 1).
var (
	// Extract summarizes the subgraph selected by a filter.
	Extract = analysis.Extract
	// SelectArcs lists the arcs passing a filter.
	SelectArcs = analysis.SelectArcs
	// ByEndpointIndices selects arcs by Morse index pair, e.g. (2, 3)
	// for ridge lines.
	ByEndpointIndices = analysis.ByEndpointIndices
	// ByMinValue selects arcs above a function-value threshold.
	ByMinValue = analysis.ByMinValue
	// FilterAnd combines filters conjunctively.
	FilterAnd = analysis.And
	// CountNodes counts alive nodes by index above a value threshold.
	CountNodes = analysis.CountNodes
	// PersistenceCurve reports surviving node count vs threshold.
	PersistenceCurve = analysis.PersistenceCurve
	// ArcLengths summarizes geometric arc lengths.
	ArcLengths = analysis.ArcLengths
)

// PersistencePair is a finite birth-death pair of a persistence diagram.
type PersistencePair = analysis.PersistencePair

// Diagram extracts the finite persistence pairs recorded by a complex's
// simplification history.
func Diagram(c *Complex, dims Dims) []PersistencePair {
	return analysis.PersistenceDiagram(c, grid.NewAddrSpace(dims))
}

// FullMergeRadices returns the paper's recommended schedule for a
// complete merge of nblocks: the highest radices possible, smaller
// radices in earlier rounds (section VI-C2).
func FullMergeRadices(nblocks int) []int { return merge.Full(nblocks).Radices }

// PartialMergeRadices returns rounds radix-8 rounds (fewer if nblocks is
// small), the paper's partial merge configuration.
func PartialMergeRadices(nblocks, rounds int) []int {
	return merge.Partial(nblocks, rounds).Radices
}

// Efficiency computes strong-scaling efficiency the way the paper does:
// the factor decrease in time divided by the factor increase in process
// count.
func Efficiency(baseTime float64, baseProcs int, t float64, procs int) float64 {
	return vtime.Efficiency(vtime.Time(baseTime), baseProcs, vtime.Time(t), procs)
}

// Describe renders a one-line summary of a result.
func (r *Result) Describe() string {
	return fmt.Sprintf(
		"procs=%d blocks=%d out=%d nodes=%v arcs=%d bytes=%d read=%.3fs compute=%.3fs merge=%.3fs write=%.3fs total=%.3fs",
		r.Procs, r.Blocks, r.OutputBlocks, r.Nodes, r.Arcs, r.OutputBytes,
		r.Times.Read, r.Times.Compute, r.Times.Merge, r.Times.Write, r.Times.Total)
}
