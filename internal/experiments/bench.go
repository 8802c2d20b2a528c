package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"parms/internal/cube"
	"parms/internal/fault"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/pipeline"
	"parms/internal/synth"
	"parms/internal/vtime"
)

// BenchRun is one traced pipeline execution of the benchmark sweep:
// modeled stage times, per-stage load imbalance (max/mean across
// ranks, from the span trace), and the communication volume observed
// by the metrics registry.
type BenchRun struct {
	Procs  int    `json:"procs"`
	Blocks int    `json:"blocks"`
	Dims   [3]int `json:"dims"`

	ReadSeconds    float64 `json:"read_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	MergeSeconds   float64 `json:"merge_seconds"`
	WriteSeconds   float64 `json:"write_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`

	// Imbalance maps stage name to max/mean rank duration (1.0 =
	// perfectly balanced).
	Imbalance map[string]float64 `json:"imbalance"`

	PeakPayloadBytes int64   `json:"peak_payload_bytes"`
	BytesSent        int64   `json:"bytes_sent"`
	BytesRecv        int64   `json:"bytes_recv"`
	Nodes            [4]int  `json:"nodes"`
	Arcs             int     `json:"arcs"`
	WallSeconds      float64 `json:"wall_seconds"`
	// Workers is the intra-rank kernel pool width the run used; 0 in
	// snapshots taken before the worker pool existed (sequential).
	Workers int `json:"workers,omitempty"`
}

// benchKernelWorkers is the intra-rank pool width of the sweep runs:
// wide enough that the parallel cost model separates clearly from the
// sequential portion, narrow enough to stay realistic for the modeled
// quad-core-class node.
const benchKernelWorkers = 4

// KernelPoint is one workers setting of the compute-kernel probe.
type KernelPoint struct {
	Workers int `json:"workers"`
	// WallSeconds is measured on the host and is report-only (CI
	// machines vary); ComputeSeconds is the modeled parallel compute
	// time and is deterministic.
	WallSeconds    float64 `json:"wall_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
}

// ComputeKernel is the data-parallel kernel probe attached to the bench
// snapshot: one block's gradient + trace run directly (no cluster) at
// several pool widths. Sweeps and SweepWrites fingerprint the pointer-
// jumping convergence — they depend only on the data, never on the
// host or the pool width — while PerWorker records how compute time
// scales with workers.
type ComputeKernel struct {
	Dims    [3]int `json:"dims"`
	Workers int    `json:"workers"` // width used by the sweep runs above
	// Sweeps counts pointer-jumping sweeps to convergence, including
	// the final zero-write sweep; SweepWrites is the per-sweep write
	// histogram (the convergence cascade).
	Sweeps      int           `json:"sweeps"`
	SweepWrites []int64       `json:"sweep_writes"`
	PerWorker   []KernelPoint `json:"per_worker"`
}

// FaultDrill is the deterministic recovery drill attached to the bench
// snapshot: one 64-rank merge with migration and checkpoint GC on, a
// rank crash and a straggler payload injected.
// Every counter below is modeled, not measured, so the benchdiff gate
// matches the counts exactly and the seconds within the stage-time
// tolerance; the drill catches silent drift in recovery paths the
// fault-free scaling sweep never exercises.
type FaultDrill struct {
	Procs              int     `json:"procs"`
	Migrations         int     `json:"migrations"`
	MigratedBlocks     []int   `json:"migrated_blocks"`
	Timeouts           int     `json:"timeouts"`
	TimeoutWaitSeconds float64 `json:"timeout_wait_seconds"`
	CheckpointsGCed    int     `json:"checkpoints_gced"`
	CheckpointGCBytes  int64   `json:"checkpoint_gc_bytes"`
	CheckpointRestores int     `json:"checkpoint_restores"`
	Recomputes         int     `json:"recomputes"`
	MergeSeconds       float64 `json:"merge_seconds"`
	Nodes              [4]int  `json:"nodes"`
}

// TracerOverhead is the flow-recorder cost probe attached to the bench
// snapshot: the same 64-rank run executed twice, once recording every
// message flow and once with the recorder in count-only mode. Flow
// instrumentation reads the virtual clocks but never advances them, so
// the virtual-time overhead must be exactly zero; the allocation
// overhead of storing the records is measured and gated under 5%.
type TracerOverhead struct {
	Procs         int   `json:"procs"`
	FlowsStarted  int64 `json:"flows_started"`
	FlowsRecorded int   `json:"flows_recorded"`
	FlowBytes     int64 `json:"flow_bytes"`
	// TracedSeconds and CountOnlySeconds are the modeled totals of the
	// recording and count-only runs; their difference is the virtual
	// overhead (always 0 — committed so the gate proves it stays 0).
	TracedSeconds          float64 `json:"traced_seconds"`
	CountOnlySeconds       float64 `json:"count_only_seconds"`
	VirtualOverheadSeconds float64 `json:"virtual_overhead_seconds"`
	// AllocOverheadFrac is (traced - count-only) / count-only host
	// allocations — the only measured (non-deterministic) field.
	AllocOverheadFrac float64 `json:"alloc_overhead_frac"`
}

// BenchResult is the full sweep, JSON-serializable for trend tracking.
type BenchResult struct {
	Dataset   string     `json:"dataset"`
	Scale     float64    `json:"scale"`
	CreatedAt string     `json:"created_at"`
	Runs      []BenchRun `json:"runs"`
	// FaultDrill is absent in snapshots taken before the migration work
	// landed; the gate only compares it when the baseline carries one.
	// TracerOverhead likewise dates from the flow tracing work.
	FaultDrill     *FaultDrill     `json:"fault_drill,omitempty"`
	TracerOverhead *TracerOverhead `json:"tracer_overhead,omitempty"`
	// ComputeKernel dates from the data-parallel kernel work; older
	// baselines without one skip its comparison.
	ComputeKernel *ComputeKernel `json:"compute_kernel,omitempty"`
}

// Bench runs a traced strong-scaling sweep (sinusoid dataset, full
// merge, 1% persistence) over procs = 8..64 doubling, capped by
// cfg.MaxProcs, with observability enabled so each run reports stage
// imbalance and peak merge payload alongside the modeled times.
func Bench(cfg Config) (*BenchResult, error) {
	n := cfg.dim(64)
	vol := synth.Sinusoid(n, 6)
	maxP := cfg.MaxProcs
	if maxP <= 0 {
		maxP = 64
	}
	out := &BenchResult{
		Dataset:   fmt.Sprintf("sinusoid n=%d", n),
		Scale:     cfg.scale(),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	lo, hi := vol.Range()
	for _, procs := range pow2Sweep(8, maxP) {
		cfg.logf("bench: procs=%d\n", procs)
		ob := cfg.observer(procs)
		cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel(), Obs: ob})
		if err != nil {
			return nil, err
		}
		pario.WriteVolume(cluster.FS(), "volume.raw", vol)
		start := time.Now()
		res, err := pipeline.Run(cluster, pipeline.Params{
			File:        "volume.raw",
			Dims:        vol.Dims,
			DType:       vol.DType,
			Blocks:      procs,
			Radices:     fullRadices(procs),
			Persistence: float32(0.01 * float64(hi-lo)),
			OutFile:     "bench.msc",
			Workers:     benchKernelWorkers,
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		imb := make(map[string]float64)
		for _, st := range res.Trace.StageStats("read", "compute", "merge", "write") {
			imb[st.Name] = st.Imbalance
		}
		reg := res.Metrics
		out.Runs = append(out.Runs, BenchRun{
			Procs:            procs,
			Blocks:           res.Blocks,
			Dims:             [3]int(vol.Dims),
			ReadSeconds:      res.Times.Read,
			ComputeSeconds:   res.Times.Compute,
			MergeSeconds:     res.Times.Merge,
			WriteSeconds:     res.Times.Write,
			TotalSeconds:     res.Times.Total,
			Imbalance:        imb,
			PeakPayloadBytes: int64(reg.GaugeValue("merge_payload_peak_bytes")),
			BytesSent:        reg.CounterValue("mpsim_bytes_sent_total"),
			BytesRecv:        reg.CounterValue("mpsim_bytes_recv_total"),
			Nodes:            res.Nodes,
			Arcs:             res.Arcs,
			WallSeconds:      wall,
			Workers:          benchKernelWorkers,
		})
	}
	cfg.logf("bench: compute kernel probe\n")
	out.ComputeKernel = benchComputeKernel(cfg)
	cfg.logf("bench: fault drill\n")
	drill, err := benchFaultDrill(cfg)
	if err != nil {
		return nil, err
	}
	out.FaultDrill = drill
	cfg.logf("bench: tracer overhead\n")
	overhead, err := benchTracerOverhead(cfg)
	if err != nil {
		return nil, err
	}
	out.TracerOverhead = overhead
	return out, nil
}

// benchComputeKernel probes the data-parallel compute kernels directly:
// one block's gradient assignment and arc trace on the chaos-suite
// sinusoid, at pool widths 1..8 doubling. No cluster is involved, so
// the wall seconds isolate the kernels themselves; the modeled seconds
// come from the same parallel cost model the pipeline charges. The
// sweep statistics are taken from the width-1 run and must be identical
// at every width (the golden equivalence tests enforce this; the gate
// fingerprints them against the baseline).
func benchComputeKernel(cfg Config) *ComputeKernel {
	vol := synth.Sinusoid(33, 4)
	block := grid.Block{
		ID: 0,
		Lo: [3]int{0, 0, 0},
		Hi: [3]int{vol.Dims[0] - 1, vol.Dims[1] - 1, vol.Dims[2] - 1},
	}
	machine := vtime.BlueGeneP()
	ck := &ComputeKernel{Dims: [3]int(vol.Dims), Workers: benchKernelWorkers}
	for _, w := range []int{1, 2, 4, 8} {
		var pool *kernel.Pool
		if w > 1 {
			pool = kernel.New(w)
		}
		start := time.Now()
		f := gradient.ComputePooled(cube.New(vol.Dims, block, vol), nil, pool)
		tr := mscomplex.FromFieldPooled(f, nil, mscomplex.TraceOptions{}, pool)
		wall := time.Since(start).Seconds()
		work := f.Work
		work.Add(tr.Complex.Work)
		ck.PerWorker = append(ck.PerWorker, KernelPoint{
			Workers:        w,
			WallSeconds:    wall,
			ComputeSeconds: float64(machine.ParallelComputeTime(work, w)),
		})
		if w == 1 {
			ck.Sweeps = tr.Kernel.Sweeps
			ck.SweepWrites = tr.Kernel.SweepWrites
		}
	}
	return ck
}

// benchTracerOverhead runs the flow-recorder cost probe: one 64-rank
// full-merge run with every message flow recorded, and the identical
// run with the recorder in count-only mode (sequence counters advance,
// nothing is stored). Virtual times must agree bit-for-bit; the host
// allocation delta between the two runs is the price of keeping the
// records.
func benchTracerOverhead(cfg Config) (*TracerOverhead, error) {
	const procs = 64
	vol := synth.Sinusoid(33, 4)
	run := func(sample int) (*pipeline.Result, uint64, error) {
		ob := obs.New(procs)
		ob.FlowRecorder().SetSample(sample)
		cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel(), Obs: ob})
		if err != nil {
			return nil, 0, err
		}
		pario.WriteVolume(cluster.FS(), "volume.raw", vol)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := pipeline.Run(cluster, pipeline.Params{
			File:        "volume.raw",
			Dims:        vol.Dims,
			DType:       vol.DType,
			Blocks:      procs,
			Radices:     []int{8, 8},
			Persistence: 0.1,
			OutFile:     "overhead.msc",
		})
		runtime.ReadMemStats(&m1)
		return res, m1.TotalAlloc - m0.TotalAlloc, err
	}
	traced, tracedAlloc, err := run(0)
	if err != nil {
		return nil, err
	}
	counted, countedAlloc, err := run(-1)
	if err != nil {
		return nil, err
	}
	flows := traced.Trace.Flows().Flows()
	var flowBytes int64
	for _, f := range flows {
		flowBytes += int64(f.Bytes)
	}
	frac := 0.0
	if countedAlloc > 0 {
		frac = (float64(tracedAlloc) - float64(countedAlloc)) / float64(countedAlloc)
	}
	return &TracerOverhead{
		Procs:                  procs,
		FlowsStarted:           traced.Trace.Flows().Started(),
		FlowsRecorded:          len(flows),
		FlowBytes:              flowBytes,
		TracedSeconds:          traced.Times.Total,
		CountOnlySeconds:       counted.Times.Total,
		VirtualOverheadSeconds: traced.Times.Total - counted.Times.Total,
		AllocOverheadFrac:      frac,
	}, nil
}

// benchFaultDrill runs the snapshot's recovery drill: a 64-rank
// radix-4 merge of the chaos-suite sinusoid with per-round checkpoints,
// GC and migration on. Rank 4 crashes entering round 1 (its block
// migrates and restores from the dead rank's checkpoint) and rank 3's
// round-0 payload is delayed just past the receive deadline (the root
// gives up on it and recovers the subtree by Restore or Rebuild). The
// injections and the virtual clock are deterministic, so every
// resulting counter is a stable fingerprint of the recovery machinery.
func benchFaultDrill(cfg Config) (*FaultDrill, error) {
	const procs = 64
	vol := synth.Sinusoid(33, 4)
	plan := fault.NewPlan(7).
		CrashRank(4, "merge:1").
		DelayMessage(3, 0, 1, 0.002)
	cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel(), Faults: plan})
	if err != nil {
		return nil, err
	}
	pario.WriteVolume(cluster.FS(), "volume.raw", vol)
	res, err := pipeline.Run(cluster, pipeline.Params{
		File:            "volume.raw",
		Dims:            vol.Dims,
		DType:           vol.DType,
		Blocks:          procs,
		Radices:         []int{4, 4, 4},
		Persistence:     0.1,
		OutFile:         "drill.msc",
		CheckpointEvery: 1,
		CheckpointGC:    true,
		Migrate:         true,
		MergeTimeout:    0.001,
	})
	if err != nil {
		return nil, err
	}
	rep := res.FaultReport
	return &FaultDrill{
		Procs:              procs,
		Migrations:         rep.Migrations,
		MigratedBlocks:     rep.MigratedBlocks,
		Timeouts:           rep.Timeouts,
		TimeoutWaitSeconds: rep.TimeoutWaitSeconds,
		CheckpointsGCed:    rep.CheckpointsGCed,
		CheckpointGCBytes:  rep.CheckpointGCBytes,
		CheckpointRestores: rep.CheckpointRestores,
		Recomputes:         rep.Recomputes,
		MergeSeconds:       res.Times.Merge,
		Nodes:              res.Nodes,
	}, nil
}

// Print renders the sweep as an aligned table.
func (b *BenchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Benchmark sweep: %s, full merge, 1%% persistence\n", b.Dataset)
	header := []string{"procs", "read s", "compute s", "merge s", "write s", "total s",
		"imb compute", "imb merge", "peak payload B", "sent B", "recv B", "wall s"}
	rows := make([][]string, 0, len(b.Runs))
	for _, r := range b.Runs {
		rows = append(rows, []string{
			fmt.Sprint(r.Procs),
			fmt.Sprintf("%.4f", r.ReadSeconds),
			fmt.Sprintf("%.4f", r.ComputeSeconds),
			fmt.Sprintf("%.4f", r.MergeSeconds),
			fmt.Sprintf("%.4f", r.WriteSeconds),
			fmt.Sprintf("%.4f", r.TotalSeconds),
			fmt.Sprintf("%.2f", r.Imbalance["compute"]),
			fmt.Sprintf("%.2f", r.Imbalance["merge"]),
			fmt.Sprint(r.PeakPayloadBytes),
			fmt.Sprint(r.BytesSent),
			fmt.Sprint(r.BytesRecv),
			fmt.Sprintf("%.1f", r.WallSeconds),
		})
	}
	table(w, header, rows)
	if ck := b.ComputeKernel; ck != nil {
		fmt.Fprintf(w, "Compute kernel probe: %d×%d×%d block, %d jumping sweeps, writes %v\n",
			ck.Dims[0], ck.Dims[1], ck.Dims[2], ck.Sweeps, ck.SweepWrites)
		for _, p := range ck.PerWorker {
			fmt.Fprintf(w, "  workers=%d  compute %.4fs (modeled)  wall %.3fs\n",
				p.Workers, p.ComputeSeconds, p.WallSeconds)
		}
	}
}

// WriteJSON writes the sweep as indented JSON.
func (b *BenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
