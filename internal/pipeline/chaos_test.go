package pipeline

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"parms/internal/fault"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/synth"
)

// chaosWatchdog bounds one pipeline run of the chaos tests. Under the
// race detector the slowest run takes about 0.7 s in -short mode and
// 1.7 s at 512 ranks, so the bound leaves a wide margin for slower
// machines while a hang still fails in seconds.
const chaosWatchdog = 10 * time.Second

// runChaos executes the pipeline under a fault plan with a hard
// real-time hang guard: no injected fault is ever allowed to hang the
// run, only to fail it or be survived.
func runChaos(t *testing.T, procs int, plan *fault.Plan, p Params,
	vol *grid.Volume) (*mpsim.Cluster, *Result, error) {
	t.Helper()
	c, err := mpsim.New(mpsim.Config{Procs: procs, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	pario.WriteVolume(c.FS(), p.File, vol)
	res, err := runGuarded(t, c, p)
	return c, res, err
}

// runGuarded runs the pipeline on c and fails t if no result comes
// within chaosWatchdog.
func runGuarded(t *testing.T, c *mpsim.Cluster, p Params) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(c, p)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(chaosWatchdog):
		t.Fatalf("chaos run hung: no result after %v", chaosWatchdog)
		return nil, nil
	}
}

func blockList(blocks []int) string { return fmt.Sprint(blocks) }

// lostBlocks lists every block whose complex the run lost: the sorted
// union of the blocks restored from a checkpoint and those rebuilt.
func lostBlocks(rep fault.Report) string {
	lost := slices.Concat(rep.RestoredBlocks, rep.RecoveredBlocks)
	slices.Sort(lost)
	return blockList(slices.Compact(lost))
}

// outputBytes returns the output file a run on c wrote.
func outputBytes(t *testing.T, c *mpsim.Cluster) []byte {
	t.Helper()
	out, err := c.FS().Get("vol.msc")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkBytes fails t unless the run on c wrote exactly want.
func checkBytes(t *testing.T, c *mpsim.Cluster, want []byte) {
	t.Helper()
	if got := outputBytes(t, c); !bytes.Equal(got, want) {
		t.Errorf("output differs from fault-free run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosSurvivesCrashDropAndCorruption is the headline fault drill:
// a 64-rank full-merge run of the sinusoid volume with a rank crash, a
// dropped merge payload and a corrupted merge payload injected. The run
// must complete, report every fault accurately, and produce exactly the
// fault-free result.
func TestChaosSurvivesCrashDropAndCorruption(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{8, 8}, Persistence: 0.1,
	}

	c, clean, err := runChaos(t, 64, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	if rep := clean.FaultReport; rep.Faulty() {
		t.Fatalf("fault-free run reports faults: %v", rep)
	}
	cleanBytes := outputBytes(t, c)

	// Rank 5 crashes after the compute stage (its block 5 complex is
	// lost and never sent); rank 3's first merge payload to rank 0 is
	// dropped; rank 6's is corrupted in flight. All three blocks belong
	// to the round-0 group rooted at block 0, owned by rank 0.
	plan := fault.NewPlan(42).
		CrashRank(5, "compute").
		DropMessage(3, 0, 1).
		CorruptMessage(6, 0, 1)
	fs, res, err := runChaos(t, 64, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}

	rep := res.FaultReport
	if rep.RankCrashes != 1 {
		t.Errorf("RankCrashes = %d, want 1", rep.RankCrashes)
	}
	// The crashed rank's silence and the dropped payload each cost the
	// root one receive timeout; the corrupted payload arrives on time
	// but fails the checksum.
	if rep.Timeouts != 2 {
		t.Errorf("Timeouts = %d, want 2", rep.Timeouts)
	}
	if rep.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", rep.Corruptions)
	}
	if rep.Recomputes != 3 {
		t.Errorf("Recomputes = %d, want 3", rep.Recomputes)
	}
	want := blockList([]int{3, 5, 6})
	if lostBlocks(rep) != want || blockList(rep.RecoveredBlocks) != want {
		t.Errorf("lost %v recovered %v, want %s both", lostBlocks(rep), rep.RecoveredBlocks, want)
	}
	if len(plan.Injected()) != 3 {
		t.Errorf("injection log: %v", plan.Injected())
	}

	// Graceful degradation must be invisible in the output: every lost
	// member is rebuilt and glued in its place in member order, so the
	// output file is byte-identical to the fault-free one and loads
	// with the same critical-point counts.
	checkBytes(t, fs, cleanBytes)
	if res.Nodes != clean.Nodes {
		t.Errorf("faulty run nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	if res.OutputBlocks != 1 {
		t.Errorf("OutputBlocks = %d, want 1", res.OutputBlocks)
	}
	all, err := pario.LoadAll(fs.FS(), "vol.msc")
	if err != nil {
		t.Fatalf("load faulty run's output: %v", err)
	}
	n, _ := all[0].AliveCounts()
	if n != clean.Nodes {
		t.Errorf("output file nodes %v, fault-free %v", n, clean.Nodes)
	}
}

// TestChaosFaultEventsAppearInTrace re-runs the headline drill with
// tracing on and checks that every injected fault shows up as an
// instant event on the track of the rank that observed it, inside the
// stage span where it happened: the crash on the crashed rank's
// compute span, the timeouts (dropped payload + crashed rank's
// silence) and the checksum rejection on the merge-group root's merge
// span, each carrying the block/src/round attributes.
func TestChaosFaultEventsAppearInTrace(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{8, 8}, Persistence: 0.1,
	}
	plan := fault.NewPlan(42).
		CrashRank(5, "compute").
		DropMessage(3, 0, 1).
		CorruptMessage(6, 0, 1)
	c, err := mpsim.New(mpsim.Config{Procs: 64, Faults: plan, Trace: obs.NewTracer(64)})
	if err != nil {
		t.Fatal(err)
	}
	pario.WriteVolume(c.FS(), "vol", vol)
	res, err := runGuarded(t, c, params)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	// span returns rank id's unique stage span with the given name.
	span := func(id int, name string) obs.Span {
		t.Helper()
		for _, s := range tr.Spans(id) {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("rank %d has no %q span", id, name)
		return obs.Span{}
	}
	contains := func(s obs.Span, i obs.Instant) bool {
		return s.Start <= i.Ts && i.Ts <= s.End
	}

	// The crash: one instant on rank 5, inside its compute span.
	var crashes []obs.Instant
	for _, in := range tr.Instants(5) {
		if in.Name == "fault:crash" {
			crashes = append(crashes, in)
		}
	}
	if len(crashes) != 1 {
		t.Fatalf("rank 5 has %d fault:crash instants, want 1", len(crashes))
	}
	if a, ok := crashes[0].Attr("stage"); !ok || a.Str() != "compute" {
		t.Errorf("crash instant stage attr = %v", crashes[0].Attrs)
	}
	if s := span(5, "compute"); !contains(s, crashes[0]) {
		t.Errorf("crash at %v outside rank 5 compute span [%v, %v]", crashes[0].Ts, s.Start, s.End)
	}

	// The timeouts and the corruption: on the round-0 root (rank 0),
	// inside its merge span, naming the lost blocks and their senders.
	mergeSpan := span(0, "merge")
	timeoutBlocks := map[int64]bool{}
	corruptBlocks := map[int64]bool{}
	for _, in := range tr.Instants(0) {
		switch in.Name {
		case "fault:timeout", "fault:corrupt":
		default:
			continue
		}
		if !contains(mergeSpan, in) {
			t.Errorf("%s at %v outside rank 0 merge span [%v, %v]", in.Name, in.Ts, mergeSpan.Start, mergeSpan.End)
		}
		block, _ := in.Attr("block")
		src, _ := in.Attr("src")
		round, _ := in.Attr("round")
		if src.Int() != block.Int() || round.Int() != 0 {
			t.Errorf("%s attrs block=%d src=%d round=%d", in.Name, block.Int(), src.Int(), round.Int())
		}
		if in.Name == "fault:timeout" {
			timeoutBlocks[block.Int()] = true
		} else {
			corruptBlocks[block.Int()] = true
		}
	}
	if !timeoutBlocks[3] || !timeoutBlocks[5] || len(timeoutBlocks) != 2 {
		t.Errorf("timeout instants for blocks %v, want {3, 5}", timeoutBlocks)
	}
	if !corruptBlocks[6] || len(corruptBlocks) != 1 {
		t.Errorf("corrupt instants for blocks %v, want {6}", corruptBlocks)
	}

	// No other rank saw a fault event.
	for id := 0; id < 64; id++ {
		for _, in := range tr.Instants(id) {
			if (in.Name == "fault:crash" && id != 5) ||
				((in.Name == "fault:timeout" || in.Name == "fault:corrupt") && id != 0) {
				t.Errorf("unexpected %s on rank %d", in.Name, id)
			}
		}
	}

	// The trace agrees with the fault report.
	count := map[string]int{}
	for id := 0; id < 64; id++ {
		for _, in := range tr.Instants(id) {
			count[in.Name]++
		}
	}
	rep := res.FaultReport
	if count["fault:crash"] != rep.RankCrashes || rep.RankCrashes != 1 {
		t.Errorf("%d fault:crash instants, report says %d crashes, want 1", count["fault:crash"], rep.RankCrashes)
	}
	if count["fault:timeout"] != rep.Timeouts {
		t.Errorf("%d fault:timeout instants, report says %d timeouts", count["fault:timeout"], rep.Timeouts)
	}
}

// TestChaosSingleDropAlwaysRecovers is the drop-tolerance property: for
// any single dropped point-to-point message, the run either completes
// with the fault-free result or fails with an error — it never hangs
// (runChaos enforces the bound) and never silently degrades.
func TestChaosSingleDropAlwaysRecovers(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{8}, Persistence: 0.2,
	}
	c, clean, err := runChaos(t, 8, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := outputBytes(t, c)
	for src := 1; src < 8; src++ {
		plan := fault.NewPlan(int64(src)).DropMessage(src, 0, 1)
		fs, res, err := runChaos(t, 8, plan, params, vol)
		if err != nil {
			t.Errorf("drop %d->0: run failed: %v", src, err)
			continue
		}
		if res.Nodes != clean.Nodes {
			t.Errorf("drop %d->0: nodes %v, want %v", src, res.Nodes, clean.Nodes)
		}
		if got := outputBytes(t, fs); !bytes.Equal(got, cleanBytes) {
			t.Errorf("drop %d->0: output differs from fault-free run (%d vs %d bytes)",
				src, len(got), len(cleanBytes))
		}
		rep := res.FaultReport
		if rep.Timeouts != 1 || lostBlocks(rep) != blockList([]int{src}) {
			t.Errorf("drop %d->0: report %v", src, rep)
		}
	}
}

// TestChaosCrashAtMergeRound: a rank that carries a round-0 merge
// result crashes entering round 1, taking its whole merged subtree with
// it. The root must recover both underlying blocks.
func TestChaosCrashAtMergeRound(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{2, 2}, Persistence: 0.2,
	}
	c, clean, err := runChaos(t, 4, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 owns block 2, the root of round 0's {2,3} group.
	plan := fault.NewPlan(7).CrashRank(2, "merge:1")
	fs, res, err := runChaos(t, 4, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.RankCrashes != 1 || rep.Timeouts != 1 || rep.Recomputes != 1 {
		t.Errorf("report %v; want 1 crash, 1 timeout, 1 recompute", rep)
	}
	if got := blockList(rep.RecoveredBlocks); got != blockList([]int{2, 3}) {
		t.Errorf("recovered %v, want [2 3]", rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, outputBytes(t, c))
}

// TestChaosCrashAtWrite: the rank holding the fully merged complex
// crashes entering the write stage; the write path must rebuild the
// entire merge deterministically and still emit a bit-valid file.
func TestChaosCrashAtWrite(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{2, 2}, Persistence: 0.2,
	}
	c, clean, err := runChaos(t, 4, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(9).CrashRank(0, "write")
	fs, res, err := runChaos(t, 4, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.RankCrashes != 1 || rep.Recomputes != 1 {
		t.Errorf("report %v; want 1 crash, 1 recompute", rep)
	}
	if got := blockList(rep.RecoveredBlocks); got != blockList([]int{0, 1, 2, 3}) {
		t.Errorf("recovered %v, want [0 1 2 3]", rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	all, err := pario.LoadAll(fs.FS(), "vol.msc")
	if err != nil {
		t.Fatalf("load output: %v", err)
	}
	n, _ := all[0].AliveCounts()
	if n != clean.Nodes {
		t.Errorf("output nodes %v, want %v", n, clean.Nodes)
	}
	checkBytes(t, fs, outputBytes(t, c))
}

// TestChaosFlakyStorage: transient filesystem failures are retried and
// reported; permanent ones fail the run cleanly instead of hanging.
func TestChaosFlakyStorage(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{4}, Persistence: 0.2,
	}
	c, _, err := runChaos(t, 4, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(11).FailRead("vol", 2).FailWrite("vol.msc", 2)
	fs, res, err := runChaos(t, 4, plan, params, vol)
	if err != nil {
		t.Fatalf("transient storage faults not survived: %v", err)
	}
	if res.FaultReport.IORetries < 4 {
		t.Errorf("IORetries = %d, want >= 4", res.FaultReport.IORetries)
	}
	checkBytes(t, fs, outputBytes(t, c))

	perm := fault.NewPlan(12).FailWrite("vol.msc", -1)
	_, _, err = runChaos(t, 4, perm, params, vol)
	if err == nil {
		t.Fatal("permanent write failure did not surface")
	}
}

// TestIORetryTraceCarriesError: a transient output write failure is
// retried, and each retry's fault:io_retry instant carries the error
// that caused it, so the trace alone says why the write was retried.
func TestIORetryTraceCarriesError(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	// Two failures stay under the filesystem's retry limit of five, so
	// the run survives them.
	plan := fault.NewPlan(11).FailWrite("vol.msc", 2)
	c, err := mpsim.New(mpsim.Config{Procs: 4, Faults: plan, Trace: obs.NewTracer(4)})
	if err != nil {
		t.Fatal(err)
	}
	pario.WriteVolume(c.FS(), "vol", vol)
	res, err := runGuarded(t, c, Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{4}, Persistence: 0.2, OutFile: "vol.msc",
	})
	if err != nil {
		t.Fatalf("transient write faults not survived: %v", err)
	}
	retries := 0
	for id := 0; id < res.Trace.Procs(); id++ {
		for _, in := range res.Trace.Instants(id) {
			if in.Name != "fault:io_retry" {
				continue
			}
			retries++
			if a, ok := in.Attr("err"); !ok || a.Str() == "" {
				t.Errorf("rank %d fault:io_retry at %v has no err attribute: %v", id, in.Ts, in.Attrs)
			}
		}
	}
	if retries == 0 {
		t.Fatal("no fault:io_retry instant in the trace")
	}
}

// TestChaosDuplicatedPayloadHarmless: a duplicated merge payload leaves
// an orphan message in a round-unique tag slot; the result is
// unaffected.
func TestChaosDuplicatedPayloadHarmless(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{8}, Persistence: 0.2,
	}
	c, clean, err := runChaos(t, 8, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(13).DuplicateMessage(2, 0, 1)
	fs, res, err := runChaos(t, 8, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, outputBytes(t, c))
	if res.FaultReport.Recomputes != 0 {
		t.Errorf("duplicate forced %d recomputes", res.FaultReport.Recomputes)
	}
}

// TestChaosCheckpointRestoreByRound is the tentpole recovery matrix: a
// 64-rank radix-4 merge with a rank crash injected at the start of each
// round, run with checkpointing on and off. With checkpoints every
// round, any crash after round 0 must be served entirely by a
// checkpoint read — zero recomputes. A round-0 crash has no checkpoint
// to restore from and must fall back to recompute; with checkpoints off
// every crash recomputes. Either way the recovered complex is the exact
// payload the crashed member would have sent, so every output file must
// be byte-identical to the fault-free run.
func TestChaosCheckpointRestoreByRound(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	base := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{4, 4, 4}, Persistence: 0.1,
		CheckpointEvery: 1,
	}
	c, clean, err := runChaos(t, 64, nil, base, vol)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := outputBytes(t, c)

	// stride(r) = 1, 4, 16: the block that is a non-root member of the
	// round-r group rooted at block 0, owned by the same-numbered rank.
	stride := []int{1, 4, 16}
	for _, ckpt := range []int{1, 0} {
		for round := 0; round < 3; round++ {
			name := fmt.Sprintf("ckpt=%d/round=%d", ckpt, round)
			t.Run(name, func(t *testing.T) {
				p := base
				p.CheckpointEvery = ckpt
				crash := stride[round]
				plan := fault.NewPlan(int64(100+round)).
					CrashRank(crash, fmt.Sprintf("merge:%d", round))
				fs, res, err := runChaos(t, 64, plan, p, vol)
				if err != nil {
					t.Fatal(err)
				}
				rep := res.FaultReport
				if rep.RankCrashes != 1 {
					t.Errorf("RankCrashes = %d, want 1", rep.RankCrashes)
				}
				if res.Nodes != clean.Nodes {
					t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
				}
				// Restored or rebuilt, the output is byte-identical to
				// the fault-free file.
				checkBytes(t, fs, cleanBytes)
				switch {
				case ckpt == 1 && round > 0:
					// Late-round crash with checkpoints: recovery is a
					// read, never a recompute.
					if rep.Recomputes != 0 || rep.RecomputeCells != 0 {
						t.Errorf("recomputes = %d (cells %d), want 0 with a valid checkpoint",
							rep.Recomputes, rep.RecomputeCells)
					}
					if rep.CheckpointRestores != 1 || rep.CheckpointFallbacks != 0 {
						t.Errorf("restores = %d fallbacks = %d, want 1 and 0",
							rep.CheckpointRestores, rep.CheckpointFallbacks)
					}
					if rep.CheckpointBytesRead <= 0 {
						t.Errorf("CheckpointBytesRead = %d, want > 0", rep.CheckpointBytesRead)
					}
					// The checkpoint covers the crashed member's subtree:
					// the stride(round) blocks earlier rounds folded in.
					var want []int
					for b := crash; b < crash+stride[round]; b++ {
						want = append(want, b)
					}
					if blockList(rep.RestoredBlocks) != blockList(want) {
						t.Errorf("restored %v, want %v", rep.RestoredBlocks, want)
					}
				case ckpt == 1 && round == 0:
					// Nothing checkpointed before round 0: the probe must
					// fall back to recompute, not fail the run.
					if rep.CheckpointRestores != 0 || rep.CheckpointFallbacks < 1 {
						t.Errorf("restores = %d fallbacks = %d, want 0 and >= 1",
							rep.CheckpointRestores, rep.CheckpointFallbacks)
					}
					if rep.Recomputes < 1 {
						t.Errorf("Recomputes = %d, want >= 1", rep.Recomputes)
					}
				default: // checkpoints off
					if rep.CheckpointRestores != 0 || rep.CheckpointFallbacks != 0 {
						t.Errorf("restores = %d fallbacks = %d with checkpoints off",
							rep.CheckpointRestores, rep.CheckpointFallbacks)
					}
					if rep.Recomputes < 1 {
						t.Errorf("Recomputes = %d, want >= 1", rep.Recomputes)
					}
					if rep.RecomputeCells <= 0 {
						t.Errorf("RecomputeCells = %d, want > 0 when recomputing from source",
							rep.RecomputeCells)
					}
					if len(rep.RestoredBlocks) != 0 {
						t.Errorf("restored blocks %v with checkpoints off", rep.RestoredBlocks)
					}
				}
			})
		}
	}
}

// TestChaosCorruptCheckpointFallsBack bit-flips every read of the one
// checkpoint recovery needs: the CRC-verified decode must reject it and
// recovery must fall back to recompute, producing the correct complex
// rather than gluing damaged state.
func TestChaosCorruptCheckpointFallsBack(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{2, 2}, Persistence: 0.2,
		CheckpointEvery: 1,
	}
	c, clean, err := runChaos(t, 4, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 merged {2,3} in round 0 and checkpointed the result; it
	// crashes entering round 1 and its checkpoint reads back corrupted.
	plan := fault.NewPlan(21).
		CrashRank(2, "merge:1").
		CorruptRead(pario.CheckpointName("ckpt", 0, 2), -1)
	fs, res, err := runChaos(t, 4, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.CheckpointRestores != 0 || rep.CheckpointFallbacks != 1 {
		t.Errorf("restores = %d fallbacks = %d, want 0 and 1",
			rep.CheckpointRestores, rep.CheckpointFallbacks)
	}
	if rep.Recomputes != 1 {
		t.Errorf("Recomputes = %d, want 1", rep.Recomputes)
	}
	if got := blockList(rep.RecoveredBlocks); got != blockList([]int{2, 3}) {
		t.Errorf("recovered %v, want [2 3]", rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, outputBytes(t, c))
}

// TestChaosCrashAtWriteRestoresFromCheckpoint: with checkpointing on,
// even losing the fully merged complex entering the write stage is
// recovered by reading the final round's checkpoint — no recompute —
// and the file written is byte-identical to the fault-free one.
func TestChaosCrashAtWriteRestoresFromCheckpoint(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{2, 2}, Persistence: 0.2,
		CheckpointEvery: 1,
	}
	c, clean, err := runChaos(t, 4, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(9).CrashRank(0, "write")
	fs, res, err := runChaos(t, 4, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.Recomputes != 0 || rep.CheckpointRestores != 1 {
		t.Errorf("report %v; want 0 recomputes, 1 restore", &rep)
	}
	if got := blockList(rep.RestoredBlocks); got != blockList([]int{0, 1, 2, 3}) {
		t.Errorf("restored %v, want [0 1 2 3]", rep.RestoredBlocks)
	}
	checkBytes(t, fs, outputBytes(t, c))
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
}

// TestChaosLargeRankCheckpointSweep is the scale drill from the
// ROADMAP: a 512-rank full merge under probabilistic message drops plus
// a deliberate last-round crash, with checkpoints on. Recovery must
// hold the result together at scale. Short mode (-short, the per-PR CI
// run) shrinks the cluster to 64 ranks; the nightly workflow runs the
// full width.
func TestChaosLargeRankCheckpointSweep(t *testing.T) {
	procs := 512
	radices := []int{8, 8, 8}
	if testing.Short() {
		procs, radices = 64, []int{8, 8}
	}
	vol := synth.Sinusoid(17, 2)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: procs, Radices: radices, Persistence: 0.2,
		CheckpointEvery: 1,
	}
	c, clean, err := runChaos(t, procs, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	lastRound := len(radices) - 1
	crash := 1
	for _, r := range radices[:lastRound] {
		crash *= r
	}
	plan := fault.NewPlan(77).
		DropProbability(0.002).
		CrashRank(crash, fmt.Sprintf("merge:%d", lastRound))
	fs, res, err := runChaos(t, procs, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.RankCrashes != 1 {
		t.Errorf("RankCrashes = %d, want 1", rep.RankCrashes)
	}
	if rep.CheckpointRestores < 1 {
		t.Errorf("CheckpointRestores = %d, want >= 1", rep.CheckpointRestores)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, outputBytes(t, c))
}

// TestChaosFaultPlanBytes is the fault-plan table: every kind of loss
// — a crash entering compute, a merge round or the write, a dropped, a
// corrupted and a late merge payload — on two fields and two merge
// schedules, with checkpoints off and on. Each plan must fire (the
// report is Faulty) and the output file must be byte-identical to the
// same input's fault-free run. The lost member is never the last of its
// group, so recovery that glued it anywhere but in member order would
// change the bytes.
func TestChaosFaultPlanBytes(t *testing.T) {
	const procs = 8
	fields := []struct {
		name        string
		vol         *grid.Volume
		persistence float32
	}{
		{"sinusoid", synth.Sinusoid(17, 2), 0.2},
		{"random", synth.Random(grid.Dims{17, 17, 17}, 4), 0.05},
	}
	type plan struct {
		name string
		make func() *fault.Plan
	}
	schedules := []struct {
		radices []int
		plans   []plan
	}{
		// Rank 2 holds block 2: the root of round 0's {2,3} and the
		// second of round 1's {0,2,4,6}.
		{[]int{2, 4}, []plan{
			{"crash-compute", func() *fault.Plan { return fault.NewPlan(1).CrashRank(2, "compute") }},
			{"crash-merge0", func() *fault.Plan { return fault.NewPlan(2).CrashRank(2, "merge:0") }},
			{"crash-merge1", func() *fault.Plan { return fault.NewPlan(3).CrashRank(2, "merge:1") }},
			{"crash-write", func() *fault.Plan { return fault.NewPlan(4).CrashRank(0, "write") }},
			{"drop", func() *fault.Plan { return fault.NewPlan(5).DropMessage(2, 0, 1) }},
			{"corrupt", func() *fault.Plan { return fault.NewPlan(6).CorruptMessage(4, 0, 1) }},
			{"delay", func() *fault.Plan { return fault.NewPlan(7).DelayMessage(2, 0, 1, 1.0) }},
		}},
		// One round: block 3 is the fourth of eight members.
		{[]int{8}, []plan{
			{"crash-compute", func() *fault.Plan { return fault.NewPlan(1).CrashRank(3, "compute") }},
			{"crash-merge0", func() *fault.Plan { return fault.NewPlan(2).CrashRank(3, "merge:0") }},
			{"crash-write", func() *fault.Plan { return fault.NewPlan(4).CrashRank(0, "write") }},
			{"drop", func() *fault.Plan { return fault.NewPlan(5).DropMessage(3, 0, 1) }},
			{"corrupt", func() *fault.Plan { return fault.NewPlan(6).CorruptMessage(3, 0, 1) }},
			{"delay", func() *fault.Plan { return fault.NewPlan(7).DelayMessage(3, 0, 1, 1.0) }},
		}},
	}
	for _, f := range fields {
		for _, s := range schedules {
			base := Params{
				File: "vol", Dims: f.vol.Dims, DType: grid.F32,
				Radices: s.radices, Persistence: f.persistence,
				MergeTimeout: 0.5,
			}
			c, _, err := runChaos(t, procs, nil, base, f.vol)
			if err != nil {
				t.Fatal(err)
			}
			cleanBytes := outputBytes(t, c)
			for _, ckpt := range []int{0, 1} {
				for _, pl := range s.plans {
					name := fmt.Sprintf("%s/radices=%v/ckpt=%d/%s", f.name, s.radices, ckpt, pl.name)
					t.Run(name, func(t *testing.T) {
						p := base
						p.CheckpointEvery = ckpt
						fs, res, err := runChaos(t, procs, pl.make(), p, f.vol)
						if err != nil {
							t.Fatal(err)
						}
						if !res.FaultReport.Faulty() {
							t.Fatalf("plan never fired: %v", &res.FaultReport)
						}
						checkBytes(t, fs, cleanBytes)
					})
				}
			}
		}
	}
}
