package analyze_test

import (
	"bytes"
	"strings"
	"testing"

	"parms/internal/fault"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/obs/analyze"
	"parms/internal/pario"
	"parms/internal/pipeline"
	"parms/internal/synth"
	"parms/internal/vtime"
)

// runTraced executes a 64-rank, 64-block, radix-[8 8] full-merge run of
// the sinusoid volume under an optional fault plan and returns its
// tracer.
func runTraced(t *testing.T, plan *fault.Plan) *obs.Tracer {
	t.Helper()
	vol := synth.Sinusoid(33, 4)
	c, err := mpsim.New(mpsim.Config{Procs: 64, Faults: plan, Trace: obs.NewTracer(64)})
	if err != nil {
		t.Fatal(err)
	}
	pario.WriteVolume(c.FS(), "vol", vol)
	if _, err := pipeline.Run(c, pipeline.Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Blocks: 64, Radices: []int{8, 8}, Persistence: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	return c.Tracer()
}

// slowNIC delays every message from rank 9 to rank 8 by 0.4 virtual
// seconds — well under the merge timeout, so payloads arrive late but
// are never excluded. Rank 9's own spans stay short; only the waits it
// imposes downstream reveal it.
func slowNIC() *fault.Plan {
	return fault.NewPlan(1).DelayMessage(9, 8, 0, 0.4)
}

func flaggedRanks(rep *analyze.Report) map[int]bool {
	out := map[int]bool{}
	for _, s := range rep.Stragglers {
		out[s.Rank] = true
	}
	return out
}

// TestStragglerDetectionNamesDelayedRank is the acceptance drill: on a
// 64-rank run with one injected slow sender, the analysis must name the
// straggler, report a critical path through the merge tree, and change
// its recommendation versus the fault-free run; and two same-seed runs
// must produce byte-identical JSON reports.
func TestStragglerDetectionNamesDelayedRank(t *testing.T) {
	clean := analyze.Analyze(analyze.FromTracer(runTraced(t, nil)))
	faulty := analyze.Analyze(analyze.FromTracer(runTraced(t, slowNIC())))

	if len(clean.Stragglers) != 0 {
		t.Errorf("fault-free run flags stragglers: %+v", clean.Stragglers)
	}
	// Only the slow sender is flagged: rank 8, the root that waited on
	// it, imposed no wait of its own.
	if f := flaggedRanks(faulty); len(f) != 1 || !f[9] {
		t.Errorf("faulty run flags %+v, want exactly rank 9", faulty.Stragglers)
	}

	// Structural checks on both reports.
	for name, rep := range map[string]*analyze.Report{"clean": clean, "faulty": faulty} {
		if rep.Procs != 64 || rep.Blocks != 64 {
			t.Errorf("%s: procs/blocks = %d/%d, want 64/64", name, rep.Procs, rep.Blocks)
		}
		if len(rep.Radices) != 2 || rep.Radices[0] != 8 || rep.Radices[1] != 8 {
			t.Errorf("%s: inferred radices %v, want [8 8]", name, rep.Radices)
		}
		if len(rep.Rounds) != 2 {
			t.Fatalf("%s: %d round reports, want 2", name, len(rep.Rounds))
		}
		if rep.Rounds[0].BlocksAfter != 8 || rep.Rounds[1].BlocksAfter != 1 {
			t.Errorf("%s: blocks_after %d,%d want 8,1",
				name, rep.Rounds[0].BlocksAfter, rep.Rounds[1].BlocksAfter)
		}
		if len(rep.CriticalPath) == 0 {
			t.Fatalf("%s: empty critical path", name)
		}
		last := rep.CriticalPath[len(rep.CriticalPath)-1]
		deepest := -1
		for _, st := range rep.CriticalPath {
			if st.Round > deepest {
				deepest = st.Round
			}
		}
		if deepest != 1 {
			t.Errorf("%s: critical path reaches round %d, want 1", name, deepest)
		}
		if last.EndSeconds != rep.CriticalEndSeconds {
			t.Errorf("%s: path end %.6f != critical end %.6f",
				name, last.EndSeconds, rep.CriticalEndSeconds)
		}
		if len(rep.CommMatrix) == 0 {
			t.Errorf("%s: empty comm matrix", name)
		}
		rounds := map[int]bool{}
		for i, st := range rep.CriticalPath {
			rounds[st.Round] = true
			if st.EndSeconds < st.StartSeconds {
				t.Errorf("%s: step %d runs backwards: %+v", name, i, st)
			}
			if i > 0 && st.EndSeconds < rep.CriticalPath[i-1].EndSeconds {
				t.Errorf("%s: step %d ends before step %d", name, i, i-1)
			}
		}
		for _, want := range []int{-1, 0, 1} {
			if !rounds[want] {
				t.Errorf("%s: critical path skips round %d", name, want)
			}
		}
	}

	// The injected wait must appear on the faulty critical path: the
	// delayed payload makes the root wait, and that wait binds the tree.
	var sawWait bool
	for _, st := range faulty.CriticalPath {
		if st.Kind == "wait" {
			sawWait = true
		}
	}
	if !sawWait {
		t.Errorf("faulty critical path has no wait step: %+v", faulty.CriticalPath)
	}

	// Recommendations diverge: the faulty run proposes remapping away
	// from rank 9 and from nobody else.
	if len(clean.Recommendation.AvoidRanks) != 0 {
		t.Errorf("fault-free recommendation avoids ranks %v", clean.Recommendation.AvoidRanks)
	}
	if got := faulty.Recommendation.AvoidRanks; len(got) != 1 || got[0] != 9 {
		t.Errorf("faulty recommendation avoids ranks %v, want [9]", got)
	}

	// Byte-identical reports across same-seed runs.
	rerun := analyze.Analyze(analyze.FromTracer(runTraced(t, slowNIC())))
	var a, b bytes.Buffer
	if err := faulty.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rerun.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same-seed runs produced different JSON reports")
	}
}

// TestAnalyzeFromExportedFiles round-trips the tracer through the
// Chrome-trace exporter and checks the analysis of the file alone
// agrees with the live one on everything but sub-microsecond timestamp
// precision — the byte count included — and is itself deterministic.
func TestAnalyzeFromExportedFiles(t *testing.T) {
	tr := runTraced(t, slowNIC())
	live := analyze.Analyze(analyze.FromTracer(tr))

	var trace bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	parse := func() *analyze.Report {
		in, err := analyze.ParseChromeTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return analyze.Analyze(in)
	}

	fromFile := parse()
	if fromFile.Procs != live.Procs || fromFile.Blocks != live.Blocks {
		t.Errorf("file analysis procs/blocks %d/%d, live %d/%d",
			fromFile.Procs, fromFile.Blocks, live.Procs, live.Blocks)
	}
	if got, want := flaggedRanks(fromFile), flaggedRanks(live); !got[9] || len(got) != len(want) {
		t.Errorf("file analysis stragglers %v, live %v", fromFile.Stragglers, live.Stragglers)
	}
	if fromFile.BytesSent != live.BytesSent || fromFile.BytesSent == 0 {
		t.Errorf("bytes_sent: file %d, live %d", fromFile.BytesSent, live.BytesSent)
	}

	var a, b bytes.Buffer
	if err := fromFile.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parse().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("parsing the same files twice produced different reports")
	}
}

// twoBlockTrace is a hand-built two-rank, two-block run: rank 0 owns
// block 0 and is the merge root, rank 1 owns block 1 and computes
// slowly, so the root sits in round 0 waiting for block 1.
func twoBlockTrace() *analyze.Input {
	vt := func(s float64) vtime.Time { return vtime.Time(s) }
	return &analyze.Input{
		Procs: 2,
		Spans: [][]obs.Span{
			{ // rank 0: owner of block 0, merge root.
				{Name: "read:block", Start: vt(0), End: vt(0.1), Attrs: []obs.Attr{obs.I("id", 0)}},
				{Name: "block", Start: vt(0.1), End: vt(0.3), Attrs: []obs.Attr{obs.I("id", 0)}},
				{Name: "round:0", Start: vt(0.3), End: vt(2.0), Attrs: []obs.Attr{obs.I("radix", 2), obs.I("blocks_after", 1), obs.I("sent_bytes", 0)}},
				{Name: "glue", Start: vt(1.5), End: vt(1.8), Attrs: []obs.Attr{obs.I("block", 1), obs.I("bytes", 100)}},
				{Name: "simplify", Start: vt(1.8), End: vt(2.0), Attrs: []obs.Attr{obs.I("root", 0)}},
			},
			{ // rank 1: owner of block 1, slow sender.
				{Name: "read:block", Start: vt(0), End: vt(0.1), Attrs: []obs.Attr{obs.I("id", 1)}},
				{Name: "block", Start: vt(0.1), End: vt(1.0), Attrs: []obs.Attr{obs.I("id", 1)}},
				{Name: "round:0", Start: vt(1.0), End: vt(1.5), Attrs: []obs.Attr{obs.I("radix", 2)}},
				{Name: "serialize", Start: vt(1.0), End: vt(1.4), Attrs: []obs.Attr{obs.I("block", 1), obs.I("bytes", 100)}},
			},
		},
		Instants: [][]obs.Instant{{}, {}},
	}
}

// TestCriticalPathSynthetic pins the flow walk's semantics: block 1's
// payload leaves rank 1 at 1.4s and the root has been blocked on it
// since 0.5s, so the path runs leaf(1) → serialize → wait on rank 0 →
// msg → glue → simplify, and ends with the simplify at 2.0s.
func TestCriticalPathSynthetic(t *testing.T) {
	in := twoBlockTrace()
	in.Flows = []obs.Flow{{
		Emitter: 1, Src: 1, Dst: 0, Bytes: 100, Kind: obs.FlowP2P,
		SendVT: 1.4, ArriveVT: 1.5, RecvStartVT: 0.5, RecvVT: 1.5, Done: true,
	}}
	rep := analyze.Analyze(in)

	var kinds []string
	for _, st := range rep.CriticalPath {
		kinds = append(kinds, st.Kind)
	}
	want := "read compute serialize wait msg glue simplify"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("critical path kinds = %q, want %q\npath: %+v", got, want, rep.CriticalPath)
	}
	if st := rep.CriticalPath[0]; st.Rank != 1 || st.Block != 1 {
		t.Errorf("path starts at %+v, want block 1's read on rank 1", st)
	}
	if wait := rep.CriticalPath[3]; wait.Rank != 0 || wait.StartSeconds != 0.5 || wait.EndSeconds != 1.5 {
		t.Errorf("wait step = %+v, want rank 0 blocked 0.5s → 1.5s", wait)
	}
	if msg := rep.CriticalPath[4]; msg.Src != 1 || msg.Dst != 0 {
		t.Errorf("msg step = %+v, want 1 → 0", msg)
	}
	if glue := rep.CriticalPath[5]; glue.Round != 0 {
		t.Errorf("glue step = %+v, want round 0", glue)
	}
	if rep.CriticalEndSeconds != 2.0 {
		t.Errorf("CriticalEndSeconds = %v, want 2.0", rep.CriticalEndSeconds)
	}
	// The wait is charged to the sender even though its own spans are
	// short, and to round 0.
	if len(rep.Stragglers) != 1 || rep.Stragglers[0].Rank != 1 || rep.Stragglers[0].Stage != "comm-wait" {
		t.Errorf("stragglers = %+v, want rank 1 comm-wait", rep.Stragglers)
	}
	if len(rep.Rounds) != 1 || rep.Rounds[0].WaitSeconds != 1.0 {
		t.Errorf("rounds = %+v, want one round with 1.0s of wait", rep.Rounds)
	}
}

// TestTimeoutFlagsSender: a receive that timed out leaves no completed
// flow, only a fault:timeout instant; its wait_s is charged to the src
// rank and to the instant's round.
func TestTimeoutFlagsSender(t *testing.T) {
	in := twoBlockTrace()
	in.Instants[0] = []obs.Instant{{Name: "fault:timeout", Ts: 1.5, Attrs: []obs.Attr{
		obs.I("block", 1), obs.I("src", 1), obs.I("round", 0), obs.F("wait_s", 1.25),
	}}}
	rep := analyze.Analyze(in)
	if len(rep.Stragglers) != 1 || rep.Stragglers[0].Rank != 1 || rep.Stragglers[0].Seconds != 1.25 {
		t.Errorf("stragglers = %+v, want rank 1 with 1.25s", rep.Stragglers)
	}
	if got := rep.Recommendation.AvoidRanks; len(got) != 1 || got[0] != 1 {
		t.Errorf("AvoidRanks = %v, want [1]", got)
	}
	if len(rep.Rounds) != 1 || rep.Rounds[0].WaitSeconds != 1.25 {
		t.Errorf("rounds = %+v, want one round with 1.25s of wait", rep.Rounds)
	}
	if rep.Faults["fault:timeout"] != 1 {
		t.Errorf("faults = %v", rep.Faults)
	}
}
