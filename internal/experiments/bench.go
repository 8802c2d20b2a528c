package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"parms/internal/fault"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/pipeline"
	"parms/internal/synth"
)

// BenchRun is one traced pipeline execution of the benchmark sweep:
// modeled stage times, per-stage load imbalance (max/mean across
// ranks, from the span trace), and the communication volume read off
// the trace's flow records and serialize spans.
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

	PeakPayloadBytes int64  `json:"peak_payload_bytes"`
	BytesSent        int64  `json:"bytes_sent"`
	BytesRecv        int64  `json:"bytes_recv"`
	Nodes            [4]int `json:"nodes"`
	Arcs             int    `json:"arcs"`
}

// FaultDrill is the deterministic recovery drill attached to the bench
// snapshot: one 64-rank merge with migration and checkpoint GC on, a
// rank crash and a straggler payload injected.
// Every field below is modeled, not measured, so the bench golden
// matches it exactly; the drill catches silent drift in recovery paths
// the fault-free scaling sweep never exercises.
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
// overhead of storing the records is measured per recorded flow, so its
// budget does not move when the pipeline's own allocation does.
type TracerOverhead struct {
	Procs         int   `json:"procs"`
	FlowsStarted  int64 `json:"flows_started"`
	FlowsRecorded int   `json:"flows_recorded"`
	FlowBytes     int64 `json:"flow_bytes"`
	// TracedSeconds and CountOnlySeconds are the modeled totals of the
	// recording and count-only runs; their difference is the virtual
	// overhead (always 0 — committed so the golden proves it stays 0).
	TracedSeconds          float64 `json:"traced_seconds"`
	CountOnlySeconds       float64 `json:"count_only_seconds"`
	VirtualOverheadSeconds float64 `json:"virtual_overhead_seconds"`
	// AllocBytesPerFlow is (traced - count-only) host allocation per
	// recorded flow, each side the least of three runs — the only
	// measured (non-deterministic) field.
	AllocBytesPerFlow float64 `json:"alloc_bytes_per_flow"`
}

// BenchResult is the full sweep, JSON-serializable for trend tracking.
type BenchResult struct {
	Dataset        string         `json:"dataset"`
	Scale          float64        `json:"scale"`
	CreatedAt      string         `json:"created_at"`
	Runs           []BenchRun     `json:"runs"`
	FaultDrill     FaultDrill     `json:"fault_drill"`
	TracerOverhead TracerOverhead `json:"tracer_overhead"`
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
		cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel(), Trace: obs.NewTracer(procs)})
		if err != nil {
			return nil, err
		}
		pario.WriteVolume(cluster.FS(), "volume.raw", vol)
		res, err := pipeline.Run(cluster, pipeline.Params{
			File:        "volume.raw",
			Dims:        vol.Dims,
			DType:       vol.DType,
			Blocks:      procs,
			Radices:     fullRadices(procs),
			Persistence: float32(0.01 * float64(hi-lo)),
			OutFile:     "bench.msc",
		})
		if err != nil {
			return nil, err
		}
		imb := make(map[string]float64)
		for _, st := range res.Trace.StageStats("read", "compute", "merge", "write") {
			imb[st.Name] = st.Imbalance
		}
		sent, recv := obs.FlowBytes(res.Trace.Flows().Flows())
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
			PeakPayloadBytes: peakPayload(res.Trace),
			BytesSent:        sent,
			BytesRecv:        recv,
			Nodes:            res.Nodes,
			Arcs:             res.Arcs,
		})
	}
	cfg.logf("bench: fault drill\n")
	var err error
	if out.FaultDrill, err = benchFaultDrill(cfg); err != nil {
		return nil, err
	}
	cfg.logf("bench: tracer overhead\n")
	if out.TracerOverhead, err = benchTracerOverhead(cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// peakPayload returns the largest merge payload of a traced run: the
// biggest "bytes" attribute on any serialize span.
func peakPayload(tr *obs.Tracer) int64 {
	var peak int64
	for id := 0; id < tr.Procs(); id++ {
		for _, s := range tr.Spans(id) {
			if s.Name != "serialize" {
				continue
			}
			if a, ok := s.Attr("bytes"); ok && a.Int() > peak {
				peak = a.Int()
			}
		}
	}
	return peak
}

// benchTracerOverhead runs the flow-recorder cost probe: one 64-rank
// full-merge run with every message flow recorded, and the identical
// run with the recorder in count-only mode (sequence counters advance,
// nothing is stored). Virtual times must agree bit-for-bit; the host
// allocation delta between the two runs is the price of keeping the
// records. A GC partway through a run empties the sync.Pools, and what
// the run then allocates again moves with GC timing, more so on a
// loaded host; so each run collects first and holds the GC off until
// it ends. The first run meets cold pools, so the probe takes each
// side's least over three alternating pairs.
func benchTracerOverhead(cfg Config) (TracerOverhead, error) {
	const procs = 64
	vol := synth.Sinusoid(33, 4)
	run := func(countOnly bool) (*pipeline.Result, uint64, error) {
		tracer := obs.NewTracer(procs)
		if countOnly {
			tracer.Flows().CountOnly()
		}
		cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel(), Trace: tracer})
		if err != nil {
			return nil, 0, err
		}
		pario.WriteVolume(cluster.FS(), "volume.raw", vol)
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
	var traced, counted *pipeline.Result
	tracedAlloc, countedAlloc := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		res, alloc, err := run(false)
		if err != nil {
			return TracerOverhead{}, err
		}
		traced, tracedAlloc = res, min(tracedAlloc, alloc)
		if res, alloc, err = run(true); err != nil {
			return TracerOverhead{}, err
		}
		counted, countedAlloc = res, min(countedAlloc, alloc)
	}
	flows := traced.Trace.Flows().Flows()
	var flowBytes int64
	for _, f := range flows {
		flowBytes += int64(f.Bytes)
	}
	perFlow := 0.0
	if len(flows) > 0 {
		perFlow = (float64(tracedAlloc) - float64(countedAlloc)) / float64(len(flows))
	}
	return TracerOverhead{
		Procs:                  procs,
		FlowsStarted:           traced.Trace.Flows().Started(),
		FlowsRecorded:          len(flows),
		FlowBytes:              flowBytes,
		TracedSeconds:          traced.Times.Total,
		CountOnlySeconds:       counted.Times.Total,
		VirtualOverheadSeconds: traced.Times.Total - counted.Times.Total,
		AllocBytesPerFlow:      perFlow,
	}, nil
}

// benchFaultDrill runs the snapshot's recovery drill: a 64-rank
// radix-4 merge of the chaos-suite sinusoid with per-round checkpoints,
// GC and migration on. Rank 4 crashes entering round 1 (its block
// migrates and restores from the dead rank's checkpoint) and rank 3's
// round-0 payload is delayed just past the receive deadline (the root
// gives up on it and recovers the member in place with
// merge.Recover). The injections and the virtual clock are
// deterministic, so every resulting counter is a stable fingerprint of
// the recovery machinery.
func benchFaultDrill(cfg Config) (FaultDrill, error) {
	const procs = 64
	vol := synth.Sinusoid(33, 4)
	plan := fault.NewPlan(7).
		CrashRank(4, "merge:1").
		DelayMessage(3, 0, 1, 0.002)
	cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel(), Faults: plan})
	if err != nil {
		return FaultDrill{}, err
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
		return FaultDrill{}, err
	}
	rep := res.FaultReport
	return FaultDrill{
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
		"imb compute", "imb merge", "peak payload B", "sent B", "recv B"}
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
		})
	}
	table(w, header, rows)
}

// WriteJSON writes the sweep as indented JSON.
func (b *BenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
