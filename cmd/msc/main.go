// Command msc runs the full parallel pipeline on a raw volume file: it
// decomposes the domain, computes per-block discrete gradients and MS
// complexes on a virtual cluster, simplifies, merges, and writes the MS
// complex block file (payloads + footer index).
//
// Usage:
//
//	msc -in jet.raw -dims 192x224x128 -dtype f32 \
//	    -procs 64 -persistence 0.01 -merge full -out jet.msc
//
// The -merge flag takes "none", "full", a round count like "2" (that
// many radix-8 rounds), or an explicit schedule like "4,8,8".
//
// Observability: -trace out.json writes a Chrome/Perfetto trace of the
// run (one track per rank, virtual-time spans for every stage, fault
// events as instants) and prints a per-stage summary table; -metrics
// out.prom writes a Prometheus-style text dump of the run's counters,
// gauges and histograms; -flows flows.json dumps the per-message
// causal flow records. The files are written after the run; msinsight
// reads them back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/pipeline"
)

func main() {
	in := flag.String("in", "", "input raw volume file (required)")
	dimsFlag := flag.String("dims", "", "volume dims XxYxZ (required)")
	dtypeFlag := flag.String("dtype", "f32", "sample type: u8, f32, f64")
	procs := flag.Int("procs", 8, "virtual cluster ranks")
	blocks := flag.Int("blocks", 0, "decomposition blocks (default: one per rank)")
	mergeFlag := flag.String("merge", "full", `merge: "none", "full", round count, or "4,8,8"`)
	persistence := flag.Float64("persistence", 0.01, "simplification threshold as a fraction of the data range")
	out := flag.String("out", "", "output file (default <in>.msc)")
	parallel := flag.Int("parallel", 0, "host goroutine bound (0 = unbounded)")
	measured := flag.Bool("measured", false, "report real wall-clock compute times instead of modeled Blue Gene/P times")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file of the run")
	flowsOut := flag.String("flows", "", "write the per-message causal flow records as JSON")
	metricsOut := flag.String("metrics", "", "write a Prometheus-style text dump of the run's metrics")
	ckpt := flag.Int("ckpt", 0, "checkpoint merge state every N rounds (0 = off); recovery restores from the newest valid checkpoint before recomputing")
	ckptDir := flag.String("ckptdir", "ckpt", "checkpoint directory on the simulated filesystem")
	ckptGC := flag.Bool("ckpt-gc", false, "reclaim checkpoints superseded by newer rounds as soon as they are safely on disk")
	migrate := flag.Bool("migrate", false, "migrate a crashed rank's blocks to healthy ranks via the block ownership table")
	avoidFlag := flag.String("avoid", "", "comma-separated ranks the initial block rotation should skip (e.g. \"3,17\")")
	autoAvoid := flag.String("auto-avoid", "", "msinsight report JSON file whose recommendation.avoid_ranks seeds -avoid")
	flag.Parse()

	if *in == "" || *dimsFlag == "" {
		fmt.Fprintln(os.Stderr, "msc: -in and -dims are required")
		os.Exit(2)
	}
	var dims grid.Dims
	if _, err := fmt.Sscanf(*dimsFlag, "%dx%dx%d", &dims[0], &dims[1], &dims[2]); err != nil {
		fatalf("bad -dims %q: %v", *dimsFlag, err)
	}
	dtype, err := grid.ParseDType(*dtypeFlag)
	if err != nil {
		fatalf("%v", err)
	}
	nblocks := *blocks
	if nblocks == 0 {
		nblocks = *procs
	}
	radices, err := parseMerge(*mergeFlag, nblocks)
	if err != nil {
		fatalf("%v", err)
	}
	outFile := *out
	if outFile == "" {
		outFile = *in + ".msc"
	}
	avoid, err := parseAvoid(*avoidFlag, *autoAvoid, *procs)
	if err != nil {
		fatalf("%v", err)
	}

	var ob *obs.Observer
	if *traceOut != "" || *flowsOut != "" || *metricsOut != "" {
		ob = obs.New(*procs)
	}
	cluster, err := mpsim.New(mpsim.Config{Procs: *procs, MaxParallel: *parallel, Obs: ob})
	if err != nil {
		fatalf("%v", err)
	}
	if err := cluster.FS().Import(*in, "input.raw"); err != nil {
		fatalf("%v", err)
	}
	raw, err := cluster.FS().Get("input.raw")
	if err != nil {
		fatalf("%v", err)
	}
	want := int64(dtype.Size()) * dims.Verts()
	if int64(len(raw)) != want {
		fatalf("%s is %d bytes; %v %s needs %d", *in, len(raw), dims, dtype, want)
	}
	samples, err := grid.DecodeSamples(raw, dtype)
	if err != nil {
		fatalf("%v", err)
	}
	lo, hi := rangeOf(samples)

	res, err := pipeline.Run(cluster, pipeline.Params{
		File:            "input.raw",
		Dims:            dims,
		DType:           dtype,
		Blocks:          nblocks,
		Radices:         radices,
		Persistence:     float32(*persistence * float64(hi-lo)),
		OutFile:         "output.msc",
		Measured:        *measured,
		CheckpointEvery: *ckpt,
		CheckpointDir:   *ckptDir,
		CheckpointGC:    *ckptGC,
		Migrate:         *migrate,
		AvoidRanks:      avoid,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if err := cluster.FS().Export("output.msc", outFile); err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("input      %s (%v %s, range [%g, %g])\n", *in, dims, dtype, lo, hi)
	fmt.Printf("cluster    %d ranks, %d blocks, %s\n", *procs, nblocks, cluster.Network())
	if len(avoid) > 0 {
		fmt.Printf("avoid      ranks %v start the run owning no blocks\n", avoid)
	}
	if res.FaultReport.Faulty() {
		fmt.Printf("faults     %s\n", res.FaultReport.String())
	}
	fmt.Printf("merge      radices %v -> %d output block(s)\n", radices, res.OutputBlocks)
	fmt.Printf("complex    nodes %v (min, 1-saddle, 2-saddle, max), %d arcs, %d truncated saddle pairs\n",
		res.Nodes, res.Arcs, res.Truncated)
	fmt.Printf("output     %s (%d bytes)\n", outFile, res.OutputBytes)
	mode := "modeled"
	if *measured {
		mode = "measured"
	}
	fmt.Printf("times      read %.3fs  compute %.3fs  merge %.3fs  write %.3fs  total %.3fs (%s)\n",
		res.Times.Read, res.Times.Compute, res.Times.Merge, res.Times.Write, res.Times.Total, mode)
	for i, round := range res.Rounds {
		fmt.Printf("  round %d  radix %d  %.3fs  %d blocks remain\n",
			i+1, round.Radix, round.Seconds, round.Blocks)
	}

	if *traceOut != "" {
		writeFile(*traceOut, func(f *os.File) error { return res.Trace.WriteChromeTrace(f) })
		fmt.Printf("trace      %s (load in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
		fmt.Println()
		obs.WriteStageStats(os.Stdout, res.Trace.StageStats(pipeline.StageSpanNames...))
	}
	if *flowsOut != "" {
		writeFile(*flowsOut, func(f *os.File) error { return res.Trace.Flows().WriteFlowsJSON(f) })
		fmt.Printf("flows      %s (%d message(s) started)\n", *flowsOut, res.Trace.Flows().Started())
	}
	if *metricsOut != "" {
		writeFile(*metricsOut, func(f *os.File) error { return res.Metrics.WritePrometheus(f) })
		fmt.Printf("metrics    %s\n", *metricsOut)
	}
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
}

func parseMerge(s string, nblocks int) ([]int, error) {
	switch s {
	case "none", "":
		return nil, nil
	case "full":
		return merge.Full(nblocks).Radices, nil
	}
	if rounds, err := strconv.Atoi(s); err == nil {
		return merge.Partial(nblocks, rounds).Radices, nil
	}
	var radices []int
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("msc: bad -merge %q", s)
		}
		radices = append(radices, r)
	}
	return radices, (merge.Schedule{Radices: radices}).Validate(nblocks)
}

// parseAvoid combines the explicit -avoid list with the avoid_ranks of
// an msinsight report named by -auto-avoid (a file holding the JSON
// msinsight -json emits), closing the advisory loop: yesterday's
// straggler report seeds today's block rotation.
func parseAvoid(avoidList, reportPath string, procs int) ([]int, error) {
	var avoid []int
	if avoidList != "" {
		for _, part := range strings.Split(avoidList, ",") {
			rank, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("msc: bad -avoid %q", avoidList)
			}
			avoid = append(avoid, rank)
		}
	}
	if reportPath != "" {
		data, err := os.ReadFile(reportPath)
		if err != nil {
			return nil, fmt.Errorf("msc: -auto-avoid: %w", err)
		}
		var rep struct {
			Recommendation struct {
				AvoidRanks []int `json:"avoid_ranks"`
			} `json:"recommendation"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("msc: -auto-avoid %s: %w", reportPath, err)
		}
		avoid = append(avoid, rep.Recommendation.AvoidRanks...)
	}
	for _, rank := range avoid {
		if rank < 0 || rank >= procs {
			return nil, fmt.Errorf("msc: avoid rank %d out of range [0, %d)", rank, procs)
		}
	}
	return avoid, nil
}

func rangeOf(samples []float32) (lo, hi float32) {
	if len(samples) == 0 {
		return 0, 0
	}
	lo, hi = samples[0], samples[0]
	for _, s := range samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "msc: "+format+"\n", args...)
	os.Exit(1)
}
