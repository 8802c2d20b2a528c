package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"parms/internal/analysis"
	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/pario"
	"parms/internal/pipeline"
	"parms/internal/synth"
	"parms/internal/vtime"
)

// This file contains studies beyond the paper's evaluation: the
// load-balancing question section IV-A raises but does not evaluate, a
// real (measured, not modeled) shared-memory speedup study, and the
// global persistence simplification the paper lists as future work
// (section VII-B).

// BalanceRow is one configuration of the load-balance study.
type BalanceRow struct {
	Procs          int
	BlocksPerProc  int
	ComputeMax     float64 // stage time = slowest rank
	ComputeMean    float64 // average rank
	ImbalanceRatio float64 // max / mean; 1.0 = perfectly balanced
}

// BalanceResult is the block-cyclic load-balancing study.
type BalanceResult struct {
	Rows []BalanceRow
}

// LoadBalance evaluates what the paper only hypothesizes (section
// IV-A): "depending on the distribution of nodes and arcs in the entire
// domain, multiple blocks per process may increase the chances that the
// computational load is better balanced". The workload is a deliberately
// skewed field whose features live in one octant, so with one block per
// process an eighth of the ranks do almost all the tracing work; with
// more, smaller blocks assigned round-robin, every rank receives a mix
// of cheap and expensive blocks and the max/mean compute ratio drops.
func LoadBalance(cfg Config) (*BalanceResult, error) {
	n := cfg.dim(64)
	vol := synth.Clustered(n+1, 8)
	const procs = 16
	res := &BalanceResult{}
	for _, bpp := range []int{1, 2, 4, 8} {
		cfg.logf("balance: blocks/proc=%d\n", bpp)
		r, err := run(cfg, vol, procs, procs*bpp, nil, 0.01)
		if err != nil {
			return nil, err
		}
		row := BalanceRow{
			Procs:         procs,
			BlocksPerProc: bpp,
			ComputeMax:    r.Times.Compute,
			ComputeMean:   r.ComputeMean,
		}
		if row.ComputeMean > 0 {
			row.ImbalanceRatio = row.ComputeMax / row.ComputeMean
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the load-balance study.
func (b *BalanceResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Load balance study (clustered features, block-cyclic assignment)")
	rows := make([][]string, len(b.Rows))
	for i, r := range b.Rows {
		rows[i] = []string{
			fmt.Sprint(r.Procs),
			fmt.Sprint(r.BlocksPerProc),
			fmt.Sprintf("%.3f", r.ComputeMax),
			fmt.Sprintf("%.3f", r.ComputeMean),
			fmt.Sprintf("%.2f", r.ImbalanceRatio),
		}
	}
	table(w, []string{"Procs", "Blocks/proc", "Compute max (s)", "Compute mean (s)", "Max/mean"}, rows)
}

// SpeedupRow is one point of the measured (real wall-clock) speedup
// study.
type SpeedupRow struct {
	Procs      int
	WallSecs   float64
	Speedup    float64
	Efficiency float64
}

// SpeedupResult is the measured shared-memory scaling study.
type SpeedupResult struct {
	HostCPUs int
	Rows     []SpeedupRow
}

// Speedup measures real wall-clock strong scaling of the compute+merge
// stages on the host machine: ranks are goroutines executing the actual
// algorithm, with the virtual clocks switched to measured mode. Unlike
// the modeled studies, these numbers depend on the host; they
// demonstrate that the two-stage algorithm parallelizes in practice, not
// just in the model.
func Speedup(cfg Config) (*SpeedupResult, error) {
	n := cfg.dim(96)
	vol := synth.Sinusoid(n+1, 8)
	res := &SpeedupResult{HostCPUs: runtime.NumCPU()}
	maxProcs := cfg.MaxProcs
	if maxProcs == 0 {
		maxProcs = runtime.NumCPU()
	}
	for _, procs := range pow2Sweep(1, maxProcs) {
		cfg.logf("speedup: p=%d\n", procs)
		cluster, err := mpsim.New(mpsim.Config{
			Procs:   procs,
			Machine: vtime.LocalMeasured(),
		})
		if err != nil {
			return nil, err
		}
		pario.WriteVolume(cluster.FS(), "volume.raw", vol)
		lo, hi := vol.Range()
		r, err := pipeline.Run(cluster, pipeline.Params{
			File:        "volume.raw",
			Dims:        vol.Dims,
			DType:       vol.DType,
			Blocks:      procs,
			Radices:     merge.Full(procs).Radices,
			Persistence: float32(0.01 * float64(hi-lo)),
			Measured:    true,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SpeedupRow{
			Procs:    procs,
			WallSecs: r.Times.Compute + r.Times.Merge,
		})
	}
	base := res.Rows[0]
	for i := range res.Rows {
		r := &res.Rows[i]
		if r.WallSecs > 0 {
			r.Speedup = base.WallSecs / r.WallSecs
			r.Efficiency = r.Speedup / (float64(r.Procs) / float64(base.Procs))
		}
	}
	return res, nil
}

// Print renders the measured speedup study.
func (s *SpeedupResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Measured compute+merge speedup on this host (%d CPUs)\n", s.HostCPUs)
	rows := make([][]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = []string{
			fmt.Sprint(r.Procs),
			fmt.Sprintf("%.3f", r.WallSecs),
			fmt.Sprintf("%.2f×", r.Speedup),
			fmt.Sprintf("%.0f%%", 100*r.Efficiency),
		}
	}
	table(w, []string{"Ranks", "Wall (s)", "Speedup", "Efficiency"}, rows)
}

// GlobalSimplifyRow compares output complexity before and after global
// simplification of a partially merged result.
type GlobalSimplifyRow struct {
	Label        string
	OutputBlocks int
	Nodes        int
	Bytes        int64
}

// GlobalSimplifyResult is the future-work study.
type GlobalSimplifyResult struct {
	Rows []GlobalSimplifyRow
}

// GlobalSimplify demonstrates the paper's future-work item (section
// VII-B): a partially merged output still carries protected boundary
// nodes; gluing the surviving blocks and simplifying globally reduces
// the complex to the fully-merged size without having re-run the
// pipeline — here performed as a post-processing pass over the output
// blocks.
func GlobalSimplify(cfg Config) (*GlobalSimplifyResult, error) {
	dims := grid.Dims{cfg.dim(96), cfg.dim(112), cfg.dim(64)}
	vol := synth.Jet(dims, 20120501)
	lo, hi := vol.Range()
	threshold := float32(0.01 * float64(hi-lo))
	const procs = 64

	cfg.logf("globalsimplify: partial run\n")
	partial, err := runKeep(cfg, vol, procs, procs, merge.Partial(procs, 1).Radices, 0.01)
	if err != nil {
		return nil, err
	}
	res := &GlobalSimplifyResult{}
	res.Rows = append(res.Rows, GlobalSimplifyRow{
		Label:        "partial merge (radix-8 ×1)",
		OutputBlocks: partial.OutputBlocks,
		Nodes:        partial.Nodes[0] + partial.Nodes[1] + partial.Nodes[2] + partial.Nodes[3],
		Bytes:        partial.OutputBytes,
	})

	// Glue all surviving blocks in id order and simplify globally.
	glueList := make([]*mscomplex.Complex, 0, len(partial.Complexes))
	for id := 0; id < partial.Blocks; id++ {
		if ms, ok := partial.Complexes[id]; ok {
			glueList = append(glueList, ms)
		}
	}
	global := analysis.MergeAll(glueList, threshold)
	gNodes, _ := global.AliveCounts()
	res.Rows = append(res.Rows, GlobalSimplifyRow{
		Label:        "+ global simplification",
		OutputBlocks: 1,
		Nodes:        gNodes[0] + gNodes[1] + gNodes[2] + gNodes[3],
		Bytes:        global.SerializedSize(),
	})

	cfg.logf("globalsimplify: full run\n")
	full, err := run(cfg, vol, procs, procs, merge.Full(procs).Radices, 0.01)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, GlobalSimplifyRow{
		Label:        "full merge (reference)",
		OutputBlocks: full.OutputBlocks,
		Nodes:        full.Nodes[0] + full.Nodes[1] + full.Nodes[2] + full.Nodes[3],
		Bytes:        full.OutputBytes,
	})
	return res, nil
}

// Print renders the global simplification study.
func (g *GlobalSimplifyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Global persistence simplification (the paper's future work, section VII-B)")
	rows := make([][]string, len(g.Rows))
	for i, r := range g.Rows {
		rows[i] = []string{r.Label, fmt.Sprint(r.OutputBlocks), fmt.Sprint(r.Nodes), fmt.Sprint(r.Bytes)}
	}
	table(w, []string{"Configuration", "Blocks", "Nodes", "Bytes"}, rows)
}

// MappingRow is one rank-placement configuration of the torus mapping
// study.
type MappingRow struct {
	Label     string
	MergeTime float64
	TotalTime float64
}

// MappingResult is the torus rank-placement study.
type MappingResult struct {
	Procs int
	Rows  []MappingRow
}

// Mapping quantifies how much the merge stage depends on where ranks
// sit in the torus — the partition-mapping question every Blue Gene
// deployment tuned by hand. Identity placement keeps radix groups of
// early merge rounds torus-local; a deterministic shuffle destroys that
// locality, and every message pays more hops.
func Mapping(cfg Config) (*MappingResult, error) {
	n := cfg.dim(64)
	vol := synth.Sinusoid(n+1, 8)
	const procs = 512
	res := &MappingResult{Procs: procs}
	radices := merge.Full(procs).Radices

	placements := []struct {
		label string
		build func() []int
	}{
		{"identity (row-major)", func() []int { return nil }},
		{"shuffled", func() []int {
			rng := rand.New(rand.NewSource(2012))
			p := rng.Perm(procs)
			return p
		}},
	}
	for _, pl := range placements {
		cfg.logf("mapping: %s\n", pl.label)
		cluster, err := mpsim.New(mpsim.Config{
			Procs:       procs,
			MaxParallel: cfg.maxParallel(),
			Placement:   pl.build(),
		})
		if err != nil {
			return nil, err
		}
		pario.WriteVolume(cluster.FS(), "volume.raw", vol)
		lo, hi := vol.Range()
		r, err := pipeline.Run(cluster, pipeline.Params{
			File: "volume.raw", Dims: vol.Dims, DType: vol.DType,
			Blocks: procs, Radices: radices,
			Persistence: float32(0.01 * float64(hi-lo)),
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MappingRow{
			Label:     pl.label,
			MergeTime: r.Times.Merge,
			TotalTime: r.Times.Total,
		})
	}
	return res, nil
}

// Print renders the mapping study.
func (m *MappingResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Torus rank-placement study (%d ranks, full merge)\n", m.Procs)
	rows := make([][]string, len(m.Rows))
	for i, r := range m.Rows {
		rows[i] = []string{r.Label, fmt.Sprintf("%.3f", r.MergeTime), fmt.Sprintf("%.3f", r.TotalTime)}
	}
	table(w, []string{"Placement", "Merge (s)", "Total (s)"}, rows)
}
