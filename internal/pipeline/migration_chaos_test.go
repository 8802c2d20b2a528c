package pipeline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"parms/internal/fault"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/synth"
)

// TestChaosMigrationDrill is the tentpole migration drill: a 64-rank
// radix-4 merge with per-round checkpoints and migration on. Rank 4
// crashes entering round 1; its surviving block 4 must migrate to the
// least-loaded healthy rank (rank 1, which starts round 1 owning
// nothing), be restored there from the dead rank's round-0 checkpoint —
// the files are keyed (round, block), not rank, so discovery is a plain
// probe — and be sent to the round-1 root on time. No root ever waits
// out a timeout and nothing is recomputed, and because the restored
// complex is the exact payload the crashed member would have sent, the
// output file is byte-identical to the fault-free run.
func TestChaosMigrationDrill(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{4, 4, 4}, Persistence: 0.1,
		CheckpointEvery: 1, Migrate: true,
	}
	fs, clean, err := runChaos(t, 64, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	if rep := clean.FaultReport; rep.Faulty() {
		t.Fatalf("fault-free migrating run reports faults: %v", rep)
	}
	cleanBytes := outputBytes(t, fs)

	plan := fault.NewPlan(31).CrashRank(4, "merge:1")
	fs, res, err := runChaos(t, 64, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.RankCrashes != 1 {
		t.Errorf("RankCrashes = %d, want 1", rep.RankCrashes)
	}
	if rep.Migrations != 1 || blockList(rep.MigratedBlocks) != blockList([]int{4}) {
		t.Errorf("Migrations = %d migrated %v, want 1 and [4]", rep.Migrations, rep.MigratedBlocks)
	}
	// Migration means the root never waits: the new owner recovers and
	// sends in phase 1, so the drill's signature is zero timeouts and —
	// with a valid checkpoint — zero recomputes.
	if rep.Timeouts != 0 || rep.TimeoutWaitSeconds != 0 {
		t.Errorf("Timeouts = %d (wait %.3fs), want 0", rep.Timeouts, rep.TimeoutWaitSeconds)
	}
	if rep.Recomputes != 0 || rep.RecomputeCells != 0 {
		t.Errorf("Recomputes = %d (cells %d), want 0 with a valid checkpoint",
			rep.Recomputes, rep.RecomputeCells)
	}
	if rep.CheckpointRestores != 1 || rep.CheckpointFallbacks != 0 {
		t.Errorf("restores = %d fallbacks = %d, want 1 and 0",
			rep.CheckpointRestores, rep.CheckpointFallbacks)
	}
	if got := blockList(rep.RestoredBlocks); got != blockList([]int{4, 5, 6, 7}) {
		t.Errorf("restored %v, want [4 5 6 7]", rep.RestoredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, cleanBytes)
}

// TestChaosMigrationWithoutCheckpoints: the same crash with no
// checkpoints to restore from. The new owner must recompute the
// migrated block's subtree from source data before sending — still no
// timeout at the root, and because the rebuild replays the original
// glue order the output remains byte-identical.
func TestChaosMigrationWithoutCheckpoints(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{4, 4, 4}, Persistence: 0.1,
		Migrate: true,
	}
	fs, clean, err := runChaos(t, 64, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := outputBytes(t, fs)

	plan := fault.NewPlan(32).CrashRank(4, "merge:1")
	fs, res, err := runChaos(t, 64, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep.Migrations != 1 || blockList(rep.MigratedBlocks) != blockList([]int{4}) {
		t.Errorf("Migrations = %d migrated %v, want 1 and [4]", rep.Migrations, rep.MigratedBlocks)
	}
	if rep.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0: the new owner sends before the root waits", rep.Timeouts)
	}
	if rep.Recomputes != 1 || rep.RecomputeCells <= 0 {
		t.Errorf("Recomputes = %d (cells %d), want 1 recompute of the migrated subtree",
			rep.Recomputes, rep.RecomputeCells)
	}
	if got := blockList(rep.RecoveredBlocks); got != blockList([]int{4, 5, 6, 7}) {
		t.Errorf("recovered %v, want [4 5 6 7]", rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, cleanBytes)
}

// TestChaosDelayedPayloadRecovers: a merge payload delayed just past
// the receive deadline. The root times out once, gives up on the
// payload and rebuilds the member's subtree from source data; the late
// payload is never consumed (its flow stays open) and the output is
// byte-identical to the fault-free run. With per-round checkpoints on,
// the root probes them first: whichever path the report shows must
// account for block 3, and the output bytes must not change.
func TestChaosDelayedPayloadRecovers(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	base := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: []int{8}, Persistence: 0.2,
		MergeTimeout: 0.001,
	}
	delayed := func(p Params) (*mpsim.Cluster, *Result, *obs.Tracer) {
		tr := obs.NewTracer(8)
		c, err := mpsim.New(mpsim.Config{
			Procs: 8, Faults: fault.NewPlan(41).DelayMessage(3, 0, 1, 0.002),
			Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		pario.WriteVolume(c.FS(), p.File, vol)
		res, err := runGuarded(t, c, p)
		if err != nil {
			t.Fatal(err)
		}
		return c, res, tr
	}

	fs, clean, err := runChaos(t, 8, nil, base, vol)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := outputBytes(t, fs)

	c, res, tr := delayed(base)
	rep := res.FaultReport
	if rep.Timeouts != 1 || rep.Recomputes != 1 || rep.RecomputeCells <= 0 {
		t.Errorf("report %v; want 1 timeout and 1 recompute", &rep)
	}
	if got := blockList(rep.RecoveredBlocks); got != blockList([]int{3}) {
		t.Errorf("recovered %v, want [3]", rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, c, cleanBytes)
	late := 0
	for _, f := range tr.Flows().Flows() {
		if f.Kind == obs.FlowP2P && f.Src == 3 && f.Dst == 0 {
			late++
			if f.Done {
				t.Errorf("late payload was consumed: %+v", f)
			}
		}
	}
	if late != 1 {
		t.Errorf("%d point-to-point flows from rank 3 to the root, want the 1 late payload", late)
	}

	ckpt := base
	ckpt.CheckpointEvery = 1
	c, res, _ = delayed(ckpt)
	rep = res.FaultReport
	if rep.Timeouts != 1 || rep.CheckpointRestores+rep.Recomputes != 1 {
		t.Fatalf("report %v; want 1 timeout and one restore or recompute", &rep)
	}
	t.Logf("checkpointed arm: %v", &rep)
	recovered := rep.RecoveredBlocks
	if rep.CheckpointRestores == 1 {
		recovered = rep.RestoredBlocks
	}
	if got := blockList(recovered); got != blockList([]int{3}) {
		t.Errorf("recovered %v, want [3] (report %v)", recovered, &rep)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("checkpointed nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, c, cleanBytes)
}

// TestChaosCheckpointGCReclaims: with per-round checkpoints and GC on,
// every checkpoint superseded by a newer round's write is reclaimed as
// soon as that write is safely on disk. A radix-4 three-round merge
// writes 16 + 4 + 1 checkpoints; all but the final one are superseded,
// so the run ends with exactly one file in the checkpoint tree and 20
// reclaims on the books — and a crash mid-merge still restores, because
// a subtree's newest checkpoint is only reclaimed after the write that
// replaces it.
func TestChaosCheckpointGCReclaims(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	params := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{4, 4, 4}, Persistence: 0.1,
		CheckpointEvery: 1, CheckpointGC: true,
	}
	fs, clean, err := runChaos(t, 64, nil, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep := clean.FaultReport
	if rep.Faulty() {
		t.Fatalf("fault-free run reports faults: %v", rep)
	}
	if rep.CheckpointsGCed != 20 || rep.CheckpointGCBytes <= 0 {
		t.Errorf("CheckpointsGCed = %d (bytes %d), want 20 superseded files reclaimed",
			rep.CheckpointsGCed, rep.CheckpointGCBytes)
	}
	var ckpts []string
	for _, name := range fs.FS().Names() {
		if strings.HasPrefix(name, "ckpt/") {
			ckpts = append(ckpts, name)
		}
	}
	want := pario.CheckpointName("ckpt", 2, 0)
	if len(ckpts) != 1 || ckpts[0] != want {
		t.Errorf("checkpoint tree after GC: %v, want only %s", ckpts, want)
	}
	cleanBytes := outputBytes(t, fs)

	// A crash entering the last round: block 16's round-1 checkpoint is
	// still on disk (its round-2 successor has not been written yet), so
	// recovery is a restore, and the output stays byte-identical.
	plan := fault.NewPlan(51).CrashRank(16, "merge:2")
	fs, res, err := runChaos(t, 64, plan, params, vol)
	if err != nil {
		t.Fatal(err)
	}
	rep = res.FaultReport
	if rep.CheckpointRestores != 1 || rep.CheckpointFallbacks != 0 {
		t.Errorf("restores = %d fallbacks = %d, want 1 and 0",
			rep.CheckpointRestores, rep.CheckpointFallbacks)
	}
	if rep.Recomputes != 0 {
		t.Errorf("Recomputes = %d, want 0", rep.Recomputes)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	checkBytes(t, fs, cleanBytes)
}

// TestChaosMigrationRateSweep compares migration against in-place
// recovery as the fault rate rises: nfail ranks that each own one
// surviving round-1 block crash together entering round 1, and the same
// plan runs once with migration on and once off (both with per-round
// checkpoints). Migration's advantage is structural — the new owners
// recover and send in phase 1, so no root ever burns a receive
// deadline, while in-place recovery pays one full timeout per crashed
// member. The sweep logs both virtual merge times per rate and fails if
// migration ever stops beating in-place recovery under this model; the
// crossover, if the model grows one, is the signal the nightly run
// watches for. Short mode (-short, the per-PR CI run) shrinks the
// cluster from 512 to 64 ranks.
func TestChaosMigrationRateSweep(t *testing.T) {
	procs := 512
	radices := []int{8, 8, 8}
	rates := []int{1, 2, 4, 8, 16}
	if testing.Short() {
		procs, radices, rates = 64, []int{8, 8}, []int{1, 2, 4}
	}
	vol := synth.Sinusoid(17, 2)
	base := Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: procs, Radices: radices, Persistence: 0.2,
		CheckpointEvery: 1,
	}
	c, clean, err := runChaos(t, procs, nil, base, vol)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := outputBytes(t, c)

	// Crash only ranks whose surviving round-1 block is a non-root group
	// member: a crashed root restores its own block without anyone
	// waiting, so it would not register a timeout in the in-place run.
	stride, span := radices[0], radices[0]*radices[1]
	for _, nfail := range rates {
		t.Run(fmt.Sprintf("nfail=%d", nfail), func(t *testing.T) {
			crashPlan := func(seed int64) *fault.Plan {
				plan := fault.NewPlan(seed)
				picked := 0
				for b := stride; picked < nfail; b += stride {
					if b%span == 0 {
						continue
					}
					plan.CrashRank(b, "merge:1")
					picked++
				}
				return plan
			}
			run := func(migrate bool, seed int64) *Result {
				p := base
				p.Migrate = migrate
				fs, res, err := runChaos(t, procs, crashPlan(seed), p, vol)
				if err != nil {
					t.Fatalf("migrate=%v: %v", migrate, err)
				}
				if res.Nodes != clean.Nodes {
					t.Errorf("migrate=%v: nodes %v, fault-free %v", migrate, res.Nodes, clean.Nodes)
				}
				if got := outputBytes(t, fs); !bytes.Equal(got, cleanBytes) {
					t.Errorf("migrate=%v: output differs from fault-free run (%d vs %d bytes)",
						migrate, len(got), len(cleanBytes))
				}
				return res
			}
			mig := run(true, int64(60+nfail))
			inPlace := run(false, int64(80+nfail))

			if rep := mig.FaultReport; rep.Migrations != nfail || rep.Timeouts != 0 {
				t.Errorf("migration run: %d migrations, %d timeouts; want %d and 0",
					rep.Migrations, rep.Timeouts, nfail)
			}
			if rep := inPlace.FaultReport; rep.Timeouts != nfail {
				t.Errorf("in-place run: %d timeouts, want %d", rep.Timeouts, nfail)
			}
			t.Logf("nfail=%d: merge migrate=%.4fs in-place=%.4fs (saved %.4fs)",
				nfail, mig.Times.Merge, inPlace.Times.Merge,
				inPlace.Times.Merge-mig.Times.Merge)
			if mig.Times.Merge >= inPlace.Times.Merge {
				t.Errorf("migration (%.4fs) stopped beating in-place recovery (%.4fs) at %d faults",
					mig.Times.Merge, inPlace.Times.Merge, nfail)
			}
		})
	}
}
