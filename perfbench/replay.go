package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"parms"
	"parms/internal/analysis"
	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/kernel"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/pario"
	"parms/internal/serial"
)

// perLayerMetrics lists every per-layer metric with its unit.
var perLayerMetrics = []struct{ name, unit string }{
	{"gradient.compute_s", "s"}, {"gradient.cells", "count"}, {"gradient.sorted_items", "count"},
	{"gradient.mallocs", "count"}, {"cube.new_s", "s"},
	{"mscomplex.trace_s", "s"}, {"mscomplex.path_steps", "count"}, {"mscomplex.sweeps", "count"},
	{"mscomplex.truncated", "count"}, {"mscomplex.simplify_s", "s"}, {"mscomplex.cancellations", "count"},
	{"mscomplex.compact_s", "s"}, {"mscomplex.serialize_s", "s"}, {"mscomplex.deserialize_s", "s"},
	{"mscomplex.payload_mb", "MB"}, {"mscomplex.glue_s", "s"}, {"mscomplex.nodes_glued", "count"},
	{"mscomplex.mallocs", "count"},
	{"merge.resimplify_s", "s"}, {"merge.execute_s", "s"}, {"merge.rounds", "count"},
	{"pario.read_s", "s"}, {"pario.read_mb", "MB"}, {"pario.ckpt_encode_s", "s"},
	{"pario.ckpt_decode_s", "s"}, {"pario.ckpt_mb", "MB"}, {"pario.output_mb", "MB"},
	{"fault.crashes", "count"}, {"fault.restores", "count"}, {"fault.recomputes", "count"},
	{"fault.timeouts", "count"},
	{"mpsim.barrier_us", "us"}, {"mpsim.bytes_sent_mb", "MB"},
	{"obs.spans", "count"}, {"obs.flows", "count"}, {"obs.export_s", "s"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "frac"}, {"runtime.mallocs", "count"},
	{"kernel.gradient_w2_speedup", "x"}, {"kernel.trace_w2_speedup", "x"},
	{"serial.compute_s", "s"}, {"serial.speedup", "x"},
	{"vtime.total_s", "s"}, {"vtime.compute_s", "s"}, {"vtime.merge_s", "s"},
	{"analysis.extract_s", "s"},
	{"trace.overhead_s", "s"},
}

// timedSpans are the replay spans whose total time is a per-layer
// metric of the same name plus "_s".
var timedSpans = []string{
	"gradient.compute", "cube.new", "mscomplex.trace", "mscomplex.simplify", "mscomplex.compact",
	"mscomplex.serialize", "mscomplex.deserialize", "mscomplex.glue", "merge.resimplify",
	"merge.execute", "pario.read", "pario.ckpt_encode", "pario.ckpt_decode", "obs.export",
	"serial.compute", "analysis.extract",
}

// errNoOutput reports a traced run in which no compute passed its checks.
var errNoOutput = errors.New("no successful compute to replay")

// notApplicable reports the per-layer metrics a workload does not
// measure; they are reported as 0.
func notApplicable(w *workload, name string) bool {
	return !w.serial && (name == "serial.compute_s" || name == "serial.speedup")
}

// barriers is how many barriers the mpsim.barrier_us probe times.
const barriers = 200

const mib = 1 << 20

// replay produces the per-layer metrics. It first alternates untraced
// and traced parms.Compute calls for a quarter of --seconds (the untraced
// call turns the program's tracer off, even on a workload whose
// end-to-end calls run traced; the traced call turns it on and runs
// inside a benchmark span), then
// replays the pipeline's layers one public call at a time, recording a
// span around each call, and checks that the replay reproduces the
// pipeline's output.
func (b *bench) replay() error {
	rec := newRecorder()
	root := rec.begin("replay", -1)

	var untraced, traced []float64
	var rt runtimeSample
	var plain, full *parms.Result
	start := time.Now()
	for len(untraced) == 0 || time.Since(start).Seconds() < b.cfg.seconds/4 {
		opt := b.w.options(b.cfg.seed)
		opt.Trace = false
		s := b.compute(opt, nil, 0)
		untraced = append(untraced, s.wall)
		rt = rt.plus(s.rt)
		if s.res != nil {
			plain = s.res
		}
		opt = b.w.options(b.cfg.seed)
		opt.Trace = true
		s = b.compute(opt, rec, root)
		traced = append(traced, s.wall)
		if s.res != nil {
			full = s.res
		}
	}
	if plain == nil || full == nil {
		return errNoOutput
	}
	calls := float64(len(untraced))
	wall := median(untraced)

	if full.Trace == nil {
		return fmt.Errorf("traced compute returned no trace")
	}
	var exportErr error
	rec.do("obs.export", root, func() { exportErr = full.Trace.WriteChromeTrace(io.Discard) })
	if exportErr != nil {
		return fmt.Errorf("export trace: %w", exportErr)
	}
	spans := 0
	for i := 0; i < full.Trace.Procs(); i++ {
		spans += len(full.Trace.Spans(i))
	}

	b.attempted++
	lr, err := b.replayLayers(rec, root, plain)
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s replay: %v\n", b.w.name, err)
	}
	rec.end(root)

	for _, name := range timedSpans {
		b.set(name+"_s", rec.seconds(name), "s")
	}
	b.set("gradient.cells", float64(lr.cells), "count")
	b.set("gradient.sorted_items", float64(lr.sortedItems), "count")
	b.set("gradient.mallocs", rec.mallocs("gradient.compute"), "count")
	b.set("mscomplex.path_steps", float64(lr.pathSteps), "count")
	b.set("mscomplex.sweeps", float64(lr.sweeps), "count")
	b.set("mscomplex.truncated", float64(lr.truncated), "count")
	b.set("mscomplex.cancellations", float64(lr.cancellations), "count")
	b.set("mscomplex.payload_mb", float64(lr.payloadBytes)/mib, "MB")
	b.set("mscomplex.nodes_glued", float64(lr.nodesGlued), "count")
	b.set("mscomplex.mallocs", rec.mallocs("mscomplex.trace", "mscomplex.simplify", "mscomplex.compact",
		"mscomplex.serialize", "mscomplex.deserialize", "mscomplex.glue"), "count")
	b.set("merge.rounds", float64(len(plain.Rounds)), "count")
	b.set("pario.read_mb", float64(lr.readBytes)/mib, "MB")
	b.set("pario.ckpt_mb", float64(lr.ckptBytes)/mib, "MB")
	b.set("pario.output_mb", float64(plain.OutputBytes)/mib, "MB")
	fr := full.FaultReport
	b.set("fault.crashes", float64(fr.RankCrashes), "count")
	b.set("fault.restores", float64(fr.CheckpointRestores), "count")
	b.set("fault.recomputes", float64(fr.Recomputes), "count")
	b.set("fault.timeouts", float64(fr.Timeouts), "count")
	b.set("mpsim.barrier_us", rec.seconds("mpsim.barrier")/barriers*1e6, "us")
	b.set("mpsim.bytes_sent_mb", float64(plain.BytesSent)/mib, "MB")
	b.set("obs.spans", float64(spans), "count")
	b.set("obs.flows", float64(len(full.Trace.Flows().Flows())), "count")
	b.set("runtime.gc_cycles", rt.gcCycles/calls, "count")
	b.set("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), "frac")
	b.set("runtime.mallocs", rt.mallocs/calls, "count")
	b.set("kernel.gradient_w2_speedup", ratio(rec.seconds("gradient.compute"), rec.seconds("kernel.gradient_w2")), "x")
	b.set("kernel.trace_w2_speedup", ratio(rec.seconds("mscomplex.trace"), rec.seconds("kernel.trace_w2")), "x")
	b.set("serial.speedup", ratio(rec.seconds("serial.compute"), wall), "x")
	b.set("vtime.total_s", plain.Times.Total, "s")
	b.set("vtime.compute_s", plain.Times.Compute, "s")
	b.set("vtime.merge_s", plain.Times.Merge, "s")
	b.set("trace.overhead_s", median(traced)-wall, "s")

	fmt.Fprintf(b.out, "%s seed=%d: %d untraced + %d traced calls, untraced wall %.4fs, traced wall %.4fs\n",
		b.w.name, b.cfg.seed, len(untraced), len(traced), wall, median(traced))
	rec.writeSelfTimes(b.out)
	if b.cfg.out != "" {
		path := filepath.Join(b.cfg.out, fmt.Sprintf("spans-%s-%d.json", b.w.name, b.cfg.seed))
		if err := writeSpans(rec, path); err != nil {
			return err
		}
		fmt.Fprintf(b.out, "spans written to %s\n", path)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layerCounts are the work counts the replay reads from the layers'
// public result fields.
type layerCounts struct {
	cells, sortedItems, pathSteps      int64
	sweeps, truncated, cancellations   int
	readBytes, payloadBytes, ckptBytes int64
	nodesGlued                         int64
}

// replayLayers runs the pipeline's layers from the benchmark's own code
// on one goroutine: stage one per block (read, cube, gradient, trace,
// simplify, compact, plus the width-2 kernel pool on the same block),
// the merge rounds performed locally (serialize, deserialize, glue,
// re-simplify, checkpoint encode/decode when the workload checkpoints),
// merge.Execute on a virtual cluster, a barrier probe, the serial
// baseline and the feature query. It fails when the replay's output
// differs from the pipeline's.
func (b *bench) replayLayers(rec *recorder, root int, plain *parms.Result) (layerCounts, error) {
	var lc layerCounts
	vol, w := b.vol, b.w
	lo, hi := vol.Range()
	thr := float32(persistence * float64(hi-lo))
	nblocks := w.procs
	sched := merge.Schedule{Radices: w.radices}
	if w.radices == nil {
		sched = merge.Full(nblocks)
	}
	dec, err := grid.Decompose(vol.Dims, nblocks)
	if err != nil {
		return lc, err
	}
	fs := mpsim.NewFS()
	pario.WriteVolume(fs, "volume.raw", vol)
	pool := kernel.New(2)
	topt := mscomplex.TraceOptions{}

	// Stage one, block by block.
	stage := rec.begin("stage1", root)
	blocks := make(map[int]*mscomplex.Complex, nblocks)
	for _, blk := range dec.Blocks {
		bs := rec.begin("block", stage)
		var bv *grid.Volume
		var rerr error
		rec.do("pario.read", bs, func() {
			bv, rerr = pario.ReadBlockVolume(fs, "volume.raw", vol.Dims, vol.DType, blk)
		})
		if rerr != nil {
			return lc, fmt.Errorf("read block %d: %w", blk.ID, rerr)
		}
		lc.readBytes += pario.BlockBytes(vol.DType, blk)
		var cc *cube.Complex
		rec.do("cube.new", bs, func() { cc = cube.New(vol.Dims, blk, bv) })
		var field *gradient.Field
		rec.do("gradient.compute", bs, func() { field = gradient.Compute(cc, dec) })
		lc.cells += field.Work.CellsVisited
		lc.sortedItems += field.Work.SortedItems
		var tr *mscomplex.TraceResult
		rec.do("mscomplex.trace", bs, func() { tr = mscomplex.FromField(field, dec, topt) })
		lc.pathSteps += tr.Complex.Work.PathSteps
		lc.sweeps += tr.Kernel.Sweeps
		lc.truncated += tr.Truncated
		var st mscomplex.SimplifyStats
		rec.do("mscomplex.simplify", bs, func() {
			st = tr.Complex.Simplify(mscomplex.SimplifyOptions{Threshold: thr})
		})
		lc.cancellations += st.Cancellations
		rec.do("mscomplex.compact", bs, func() { blocks[blk.ID] = tr.Complex.Compact() })

		var f2 *gradient.Field
		rec.do("kernel.gradient_w2", bs, func() { f2 = gradient.ComputePooled(cc, dec, pool) })
		var tr2 *mscomplex.TraceResult
		rec.do("kernel.trace_w2", bs, func() { tr2 = mscomplex.FromFieldPooled(f2, dec, topt, pool) })
		if f2.CriticalCounts() != field.CriticalCounts() || tr2.Truncated != tr.Truncated {
			return lc, fmt.Errorf("block %d: width-2 kernels disagree with the sequential path", blk.ID)
		}
		rec.end(bs)
	}
	rec.end(stage)
	if err := b.chk.checkTruncated(lc.truncated); err != nil {
		return lc, err
	}

	// Fresh copies of the per-block complexes for merge.Execute, which
	// consumes its input.
	copies := make(map[int]*mscomplex.Complex, nblocks)
	for id, ms := range blocks {
		c, err := mscomplex.Deserialize(ms.Serialize())
		if err != nil {
			return lc, fmt.Errorf("copy block %d: %w", id, err)
		}
		copies[id] = c
	}

	// The merge rounds, performed locally in the pipeline's order.
	ms := rec.begin("merge.local", root)
	for round := range sched.Radices {
		rs := rec.begin("merge.round", ms)
		for _, g := range sched.RoundGroups(nblocks, round) {
			acc := blocks[g.Root]
			for _, m := range g.Members {
				if m == g.Root {
					continue
				}
				var frame []byte
				rec.do("mscomplex.serialize", rs, func() { frame = mpsim.Frame(blocks[m].Serialize()) })
				lc.payloadBytes += int64(len(frame))
				var other *mscomplex.Complex
				var derr error
				rec.do("mscomplex.deserialize", rs, func() {
					body, err := mpsim.Unframe(frame)
					if err != nil {
						derr = err
						return
					}
					other, derr = mscomplex.Deserialize(body)
				})
				if derr != nil {
					return lc, fmt.Errorf("round %d block %d: %w", round, m, derr)
				}
				glued := acc.Work.NodesGlued
				rec.do("mscomplex.glue", rs, func() { acc.Glue(other) })
				lc.nodesGlued += acc.Work.NodesGlued - glued
				delete(blocks, m)
			}
			rec.do("merge.resimplify", rs, func() {
				acc.Simplify(mscomplex.SimplifyOptions{Threshold: thr})
				acc = acc.Compact()
			})
			if w.drill != nil {
				var enc []byte
				rec.do("pario.ckpt_encode", rs, func() { enc = pario.EncodeCheckpoint(g.Root, acc) })
				lc.ckptBytes += int64(len(enc))
				var back *mscomplex.Complex
				var derr error
				rec.do("pario.ckpt_decode", rs, func() { _, back, derr = pario.DecodeCheckpoint(enc) })
				if derr != nil {
					return lc, fmt.Errorf("checkpoint of block %d: %w", g.Root, derr)
				}
				if !sameCounts(back, acc) {
					return lc, fmt.Errorf("checkpoint of block %d decodes to a different complex", g.Root)
				}
			}
			blocks[g.Root] = acc
		}
		rec.end(rs)
	}
	rec.end(ms)
	if err := matchesPipeline("local merge", blocks, plain); err != nil {
		return lc, err
	}

	// merge.Execute on a virtual cluster over the precomputed blocks.
	cl, err := mpsim.New(mpsim.Config{Procs: w.procs, MaxParallel: runtime.NumCPU()})
	if err != nil {
		return lc, err
	}
	owners := grid.NewOwnerTable(nblocks, w.procs)
	merged := make(map[int]*mscomplex.Complex)
	var mu sync.Mutex
	var execErr error
	rec.do("merge.execute", root, func() {
		_, execErr = cl.Run(func(r *mpsim.Rank) error {
			mine := map[int]*mscomplex.Complex{}
			for _, id := range owners.Blocks(r.ID()) {
				mine[id] = copies[id]
			}
			_, err := merge.Execute(r, sched, nblocks, mine, merge.Options{Threshold: thr})
			mu.Lock()
			for id, c := range mine {
				merged[id] = c
			}
			mu.Unlock()
			return err
		})
	})
	if execErr != nil {
		return lc, fmt.Errorf("merge.Execute: %w", execErr)
	}
	if err := matchesPipeline("merge.Execute", merged, plain); err != nil {
		return lc, err
	}

	// Barrier latency at the workload's rank count.
	bc, err := mpsim.New(mpsim.Config{Procs: w.procs, MaxParallel: runtime.NumCPU()})
	if err != nil {
		return lc, err
	}
	rec.do("mpsim.barrier", root, func() {
		_, err = bc.Run(func(r *mpsim.Rank) error {
			for i := 0; i < barriers; i++ {
				r.Barrier()
			}
			return nil
		})
	})
	if err != nil {
		return lc, fmt.Errorf("barrier probe: %w", err)
	}

	if w.serial {
		var sc *mscomplex.Complex
		rec.do("serial.compute", root, func() { sc = serial.Compute(vol, thr) })
		if err := sc.Validate(); err != nil {
			return lc, fmt.Errorf("serial complex: %w", err)
		}
		n, a := sc.AliveCounts()
		fmt.Fprintf(b.out, "serial baseline (not compared): nodes %v arcs %d\n", n, a)
	}

	// The Figure 1 query: ridge lines (2-saddle to maximum arcs) above
	// the middle of the value range, on the lowest surviving block.
	first := -1
	for id := range blocks {
		if first < 0 || id < first {
			first = id
		}
	}
	cut := lo + (hi-lo)/2
	rec.do("analysis.extract", root, func() {
		analysis.Extract(blocks[first], analysis.And(analysis.ByEndpointIndices(2, 3), analysis.ByMinValue(cut)))
	})
	return lc, nil
}

func sameCounts(a, b *mscomplex.Complex) bool {
	an, aa := a.AliveCounts()
	bn, ba := b.AliveCounts()
	return an == bn && aa == ba
}

// matchesPipeline checks that replayed output blocks validate and add
// up to the pipeline's node and arc counts.
func matchesPipeline(what string, blocks map[int]*mscomplex.Complex, plain *parms.Result) error {
	var nodes [4]int
	arcs := 0
	for id, c := range blocks {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("%s block %d: %w", what, id, err)
		}
		n, a := c.AliveCounts()
		for i := range n {
			nodes[i] += n[i]
		}
		arcs += a
	}
	if len(blocks) != plain.OutputBlocks || nodes != plain.Nodes || arcs != plain.Arcs {
		return fmt.Errorf("%s gives %d blocks, nodes %v, arcs %d; the pipeline gave %d, %v, %d",
			what, len(blocks), nodes, arcs, plain.OutputBlocks, plain.Nodes, plain.Arcs)
	}
	return nil
}
