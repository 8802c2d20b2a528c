// Benchmarks regenerating the paper's evaluation (section VI): one
// benchmark per table and figure, each wrapping the corresponding driver
// in internal/experiments at a reduced default scale, plus
// micro-benchmarks of the pipeline stages. Key quantities are attached
// with b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the paper-shaped numbers next to the host timings. cmd/msbench
// runs the same drivers with full tables and adjustable scale.
package parms_test

import (
	"runtime"
	"testing"

	"parms"
	"parms/internal/experiments"
)

func benchCfg(b *testing.B) experiments.Config {
	b.Helper()
	return experiments.Config{Scale: 0.5}
}

// BenchmarkTableIMergeCost regenerates Table I: the cost of merging 2048
// blocks in one to four rounds. Each successive round must be more
// expensive than the one before it.
func BenchmarkTableIMergeCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(res.Rows[0].TotalMerge, "round1-merge-s")
		b.ReportMetric(last.TotalMerge, "full-merge-s")
		b.ReportMetric(last.FinalRoundTime, "final-round-s")
	}
}

// BenchmarkTableIIMergeStrategy regenerates Table II: five strategies
// for a full merge of 256 blocks; [4 8 8] should be the fastest and
// eight rounds of radix-2 the slowest.
func BenchmarkTableIIMergeStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ComputeMerge, "best-488-s")
		b.ReportMetric(res.Rows[len(res.Rows)-1].ComputeMerge, "worst-2x8-s")
	}
}

// BenchmarkFig4Stability regenerates the Figure 4 stability study on the
// hydrogen-atom proxy across 1, 8 and 64 blocks.
func BenchmarkFig4Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.StableMaxima), "stable-maxima")
		b.ReportMetric(float64(last.RawNodes), "pre-merge-nodes")
		b.ReportMetric(boolMetric(last.MatchesSerial), "extrema-match")
	}
}

// BenchmarkFig5ComplexitySeries regenerates the Figure 5 series: complex
// size versus data complexity.
func BenchmarkFig5ComplexitySeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		first := res.Rows[0]
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(nodesTotal(first.Nodes)), "nodes-lowfreq")
		b.ReportMetric(float64(nodesTotal(last.Nodes)), "nodes-highfreq")
	}
}

// BenchmarkFig6Sweep regenerates the Figure 6 parameter study: compute
// time, merge time and output size over procs × size × complexity.
func BenchmarkFig6Sweep(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxProcs = 64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "points")
	}
}

// BenchmarkFig7MergeDepth regenerates the Figure 7 comparison of partial
// and full merging on the JET proxy.
func BenchmarkFig7MergeDepth(b *testing.B) {
	cfg := benchCfg(b)
	cfg.Scale = 0.3
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].TotalNodes), "nodes-unmerged")
		b.ReportMetric(float64(res.Rows[2].TotalNodes), "nodes-full")
	}
}

// BenchmarkFig9JetScaling regenerates the Figure 9 strong-scaling study
// of the JET workload under a full merge.
func BenchmarkFig9JetScaling(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxProcs = 512
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(res.Rows[0].Total, "base-total-s")
		b.ReportMetric(last.Total, "scaled-total-s")
		b.ReportMetric(100*last.Efficiency, "efficiency-pct")
	}
}

// BenchmarkFig10RTScaling regenerates the Figure 10 strong-scaling study
// of the Rayleigh-Taylor workload under a two-round partial merge.
func BenchmarkFig10RTScaling(b *testing.B) {
	cfg := benchCfg(b)
	cfg.MaxProcs = 1024
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(100*last.Efficiency, "efficiency-pct")
		b.ReportMetric(100*last.CMEff, "cm-efficiency-pct")
	}
}

// BenchmarkPipelineEndToEnd measures one full parallel run of the public
// API on a 64³ sinusoid across 16 virtual ranks (host wall time; virtual
// stage times attached as metrics).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	vol := parms.Sinusoid(65, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parms.Compute(vol, parms.Options{Procs: 16, FullMerge: true, Persistence: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Times.Compute, "virt-compute-s")
		b.ReportMetric(res.Times.Merge, "virt-merge-s")
	}
}

// BenchmarkPipelineNoiseMerge measures one full parallel run on a 49³
// uniform-noise field across 16 virtual ranks, the merge-heavy case:
// per-block simplification, serialization, gluing and re-simplification
// of ~81k nodes dominate, not the gradient. Profile the merge path with
//
//	go test -run '^$' -bench PipelineNoiseMerge -cpuprofile cpu.prof .
func BenchmarkPipelineNoiseMerge(b *testing.B) {
	vol := parms.RandomField(parms.Dims{49, 49, 49}, 1)
	opts := parms.Options{Procs: 16, FullMerge: true, Persistence: 0.01, MaxParallel: runtime.NumCPU()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parms.Compute(vol, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialBaseline measures the serial whole-volume computation
// the parallel algorithm is compared against.
func BenchmarkSerialBaseline(b *testing.B) {
	vol := parms.Sinusoid(65, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := parms.ComputeSerial(vol, 0.01)
		if ms.NumAliveNodes() == 0 {
			b.Fatal("empty complex")
		}
	}
}

// BenchmarkExtraction measures the Figure 1 style interactive query
// against a precomputed complex.
func BenchmarkExtraction(b *testing.B) {
	ms := parms.ComputeSerial(parms.Sinusoid(65, 4), 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The 2-saddles between adjacent maxima of the product field sit
		// near value 0, so the threshold must admit them.
		sg := parms.Extract(ms, parms.FilterAnd(parms.ByEndpointIndices(2, 3), parms.ByMinValue(-0.5)))
		if sg.Arcs == 0 {
			b.Fatal("no arcs")
		}
	}
}

func nodesTotal(n [4]int) int { return n[0] + n[1] + n[2] + n[3] }

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkLoadBalance runs the blocks-per-process study on the skewed
// workload (the open question of section IV-A).
func BenchmarkLoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LoadBalance(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ImbalanceRatio, "imbalance-1bpp")
		b.ReportMetric(res.Rows[len(res.Rows)-1].ImbalanceRatio, "imbalance-8bpp")
	}
}

// BenchmarkGlobalSimplify runs the future-work study: partial merge
// plus global simplification versus a full merge.
func BenchmarkGlobalSimplify(b *testing.B) {
	cfg := benchCfg(b)
	cfg.Scale = 0.3
	for i := 0; i < b.N; i++ {
		res, err := experiments.GlobalSimplify(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].Nodes), "partial-nodes")
		b.ReportMetric(float64(res.Rows[1].Nodes), "global-nodes")
	}
}

// BenchmarkMapping runs the torus rank-placement study.
func BenchmarkMapping(b *testing.B) {
	cfg := benchCfg(b)
	cfg.Scale = 0.3
	for i := 0; i < b.N; i++ {
		res, err := experiments.Mapping(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MergeTime, "identity-merge-s")
		b.ReportMetric(res.Rows[1].MergeTime, "shuffled-merge-s")
	}
}
