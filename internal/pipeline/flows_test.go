package pipeline

import (
	"bytes"
	"testing"

	"parms/internal/fault"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/obs/analyze"
	"parms/internal/pario"
	"parms/internal/synth"
)

// TestFlowTraceDeterminism: two identically configured runs must record
// byte-identical flow dumps — the flow streams are per-emitter and
// carry only virtual times, so host scheduling must not leak in.
func TestFlowTraceDeterminism(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	var dumps [2][]byte
	for i := range dumps {
		res := runTraced(t, 8, vol)
		var buf bytes.Buffer
		if err := res.Trace.Flows().WriteFlowsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dumps[i] = buf.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Error("flow dump differs between identical runs")
	}

	res := runTraced(t, 8, vol)
	kinds := map[string]int{}
	for _, f := range res.Trace.Flows().Flows() {
		kinds[f.Kind]++
		if f.Done {
			if f.RecvVT < f.SendVT {
				t.Errorf("flow received before it was sent: %+v", f)
			}
			if f.ArriveVT < f.SendVT {
				t.Errorf("flow arrived before it was sent: %+v", f)
			}
		}
	}
	if kinds[obs.FlowP2P] == 0 || kinds[obs.FlowCollective] == 0 {
		t.Errorf("flow kinds %v, want both p2p payloads and collective traffic", kinds)
	}
}

// TestFlowsAttributeMigratedBlocks replays the migration drill with
// flows on: rank 4 crashes entering round 1 and its block migrates to a
// healthy rank, which restores it from checkpoint and sends the round-1
// payload in the dead rank's place. The flow records must show exactly
// that — one synthetic migrated-restore flow from the dead rank to the
// new owner, the payload send attributed to the new owner after the
// restore, and nothing point-to-point from the dead rank to the round-1
// root.
func TestFlowsAttributeMigratedBlocks(t *testing.T) {
	vol := synth.Sinusoid(33, 4)
	plan := fault.NewPlan(31).CrashRank(4, "merge:1")
	c, err := mpsim.New(mpsim.Config{
		Procs: 64, Faults: plan, Obs: obs.New(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	pario.WriteVolume(c.FS(), "vol", vol)
	res, err := Run(c, Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{4, 4, 4}, Persistence: 0.1,
		CheckpointEvery: 1, Migrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultReport.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", res.FaultReport.Migrations)
	}

	flows := res.Trace.Flows().Flows()
	var restores []obs.Flow
	for _, f := range flows {
		if f.Kind == obs.FlowMigratedRestore {
			restores = append(restores, f)
		}
	}
	if len(restores) != 1 {
		t.Fatalf("recorded %d migrated-restore flows, want 1", len(restores))
	}
	mr := restores[0]
	if mr.Src != 4 {
		t.Errorf("restore flow Src = %d, want the dead rank 4", mr.Src)
	}
	newOwner := mr.Dst
	if newOwner == 4 || mr.Emitter != newOwner {
		t.Errorf("restore flow emitter %d dst %d: must be the (healthy) new owner", mr.Emitter, mr.Dst)
	}
	if mr.Bytes <= 0 || !mr.Done {
		t.Errorf("restore flow carries no payload: %+v", mr)
	}

	// Block 4 is a round-1 member of root block 0, so its payload goes
	// to rank 0 — from the new owner, after the restore, never from the
	// crashed rank.
	ownerSent := false
	for _, f := range flows {
		if f.Kind != obs.FlowP2P {
			continue
		}
		if f.Src == 4 && f.Dst == 0 {
			t.Errorf("dead rank sent a p2p payload to the round-1 root: %+v", f)
		}
		if f.Src == newOwner && f.Dst == 0 && f.SendVT >= mr.RecvVT {
			ownerSent = true
		}
	}
	if !ownerSent {
		t.Errorf("no p2p payload from new owner %d to root 0 after the restore", newOwner)
	}

	// The comm matrix carries the same attribution: the restore link and
	// the new owner's payload link both exist.
	rep := analyze.Analyze(analyze.FromObserver(c.Obs()))
	var restoreLink, payloadLink bool
	for _, l := range rep.CommMatrix {
		if l.Src == 4 && l.Dst == newOwner && l.Bytes > 0 {
			restoreLink = true
		}
		if l.Src == newOwner && l.Dst == 0 && l.Messages > 0 {
			payloadLink = true
		}
	}
	if !restoreLink || !payloadLink {
		t.Errorf("comm matrix missing migration links (restore %v, payload %v):\n%+v",
			restoreLink, payloadLink, rep.CommMatrix)
	}
}

// TestFlowRecorderNoVirtualTimeOverhead: flow instrumentation reads the
// virtual clocks but never advances them, so modeled times must be
// bit-identical whether flows are fully recorded, counted only, or the
// run is not observed at all — and count-only mode must keep the send
// counts exact while dropping the records.
func TestFlowRecorderNoVirtualTimeOverhead(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	run := func(observe, countOnly bool) *Result {
		cfg := mpsim.Config{Procs: 8}
		if observe {
			cfg.Obs = obs.New(8)
			if countOnly {
				cfg.Obs.FlowRecorder().CountOnly()
			}
		}
		c, err := mpsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pario.WriteVolume(c.FS(), "vol", vol)
		res, err := Run(c, Params{
			File: "vol", Dims: vol.Dims, DType: grid.F32,
			Radices: []int{8}, Persistence: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(true, false)
	counted := run(true, true)
	bare := run(false, false)
	if full.Times != counted.Times || full.Times != bare.Times {
		t.Errorf("flow recording changed virtual time:\nfull    %+v\ncounted %+v\nbare    %+v",
			full.Times, counted.Times, bare.Times)
	}
	if n := len(counted.Trace.Flows().Flows()); n != 0 {
		t.Errorf("count-only mode stored %d records", n)
	}
	if full.Trace.Flows().Started() != counted.Trace.Flows().Started() {
		t.Errorf("Started drifted in count-only mode: %d vs %d",
			full.Trace.Flows().Started(), counted.Trace.Flows().Started())
	}
	if full.Trace.Flows().Started() == 0 {
		t.Error("traced run sequenced no flows")
	}
}
