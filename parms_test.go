package parms

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/mscomplex"
	"parms/internal/obs"
)

func TestPublicComputeMatchesSerial(t *testing.T) {
	vol := Sinusoid(17, 2)
	serial := ComputeSerial(vol, 0.15)
	wantNodes, _ := serial.AliveCounts()

	res, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBlocks != 1 {
		t.Fatalf("output blocks %d", res.OutputBlocks)
	}
	if res.Nodes != wantNodes {
		t.Fatalf("parallel nodes %v, serial %v", res.Nodes, wantNodes)
	}
	ms := res.Merged()
	if ms == nil {
		t.Fatal("no merged complex")
	}
	if ms.EulerCharacteristic() != 1 {
		t.Fatalf("Euler characteristic %d", ms.EulerCharacteristic())
	}
	if res.TotalNodes() != ms.NumAliveNodes() {
		t.Fatalf("TotalNodes %d != complex %d", res.TotalNodes(), ms.NumAliveNodes())
	}
	if res.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestPublicPartialMerge(t *testing.T) {
	vol := Sinusoid(17, 2)
	res, err := Compute(vol, Options{
		Procs:       8,
		Radices:     PartialMergeRadices(8, 1)[:1],
		Persistence: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBlocks != 1 {
		// Partial(8, 1) is [8]: a full merge for 8 blocks.
		t.Fatalf("output blocks %d", res.OutputBlocks)
	}
}

func TestPublicExtraction(t *testing.T) {
	vol := Sinusoid(17, 2)
	ms := ComputeSerial(vol, 0.1)
	sg := Extract(ms, FilterAnd(ByEndpointIndices(2, 3), ByMinValue(0)))
	if sg.Arcs == 0 {
		t.Fatal("no ridge arcs extracted")
	}
	if CountNodes(ms, 3, -2) == 0 {
		t.Fatal("no maxima")
	}
	if len(PersistenceCurve(ms)) < 2 {
		t.Fatal("degenerate persistence curve")
	}
	if ArcLengths(ms).Count == 0 {
		t.Fatal("no arc lengths")
	}
}

func TestFullMergeRadicesGuideline(t *testing.T) {
	got := FullMergeRadices(2048)
	want := []int{4, 8, 8, 8}
	if len(got) != len(want) {
		t.Fatalf("radices %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("radices %v, want %v", got, want)
		}
	}
}

func TestEfficiencyExported(t *testing.T) {
	if e := Efficiency(970, 32, 29, 8192); e < 0.12 || e > 0.14 {
		t.Fatalf("efficiency %v", e)
	}
}

func TestComputeInSituMatchesCompute(t *testing.T) {
	vol := Sinusoid(17, 2)
	lo, hi := vol.Range()

	direct, err := Compute(vol, Options{Procs: 4, FullMerge: true, Persistence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	insitu, err := ComputeInSitu(vol.Dims, func(blkLo, blkHi [3]int) *Volume {
		return vol.SubVolume(blkLo, blkHi)
	}, lo, hi, Options{Procs: 4, FullMerge: true, Persistence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Nodes != insitu.Nodes || direct.Arcs != insitu.Arcs {
		t.Fatalf("in-situ %v/%d, direct %v/%d", insitu.Nodes, insitu.Arcs, direct.Nodes, direct.Arcs)
	}
	if insitu.Times.Read > direct.Times.Read {
		t.Errorf("in-situ read stage (%v) not cheaper than file read (%v)",
			insitu.Times.Read, direct.Times.Read)
	}
}

func TestSimplifyPublicMonotone(t *testing.T) {
	vol := Sinusoid(17, 2)
	lo, hi := vol.Range()
	ms := ComputeSerial(vol, 0.05)
	n1 := ms.NumAliveNodes()
	Simplify(ms, 0.3, lo, hi)
	n2 := ms.NumAliveNodes()
	if n2 > n1 {
		t.Fatalf("simplification grew the complex: %d -> %d", n1, n2)
	}
	if n2 == n1 {
		t.Fatalf("raising the threshold to 30%% cancelled nothing (%d nodes)", n1)
	}
}

func TestMultiResolutionPublic(t *testing.T) {
	vol := Sinusoid(17, 2)
	ms := ComputeSerial(vol, 0.3)
	if len(ms.Hierarchy) == 0 {
		t.Fatal("no hierarchy recorded")
	}
	if got := len(Diagram(ms, vol.Dims)); got != len(ms.Hierarchy) {
		t.Fatalf("diagram has %d pairs, want %d", got, len(ms.Hierarchy))
	}
}

// computeWatchdog bounds one Compute call of the crash tests. Such a
// run takes well under a second even under the race detector; a crash
// whose loss goes unannounced leaves a receive blocked forever, and the
// test must fail at the bound rather than at the go test timeout.
const computeWatchdog = 10 * time.Second

// computeWithin runs Compute under computeWatchdog and fails t on an
// error or a hang.
func computeWithin(t *testing.T, vol *Volume, opt Options) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Compute(vol, opt)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(computeWatchdog):
		t.Fatalf("Compute hung: no result after %v", computeWatchdog)
		return nil
	}
}

func TestChaosPublicFaultInjection(t *testing.T) {
	vol := Sinusoid(17, 2)
	clean := computeWithin(t, vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15})
	plan := NewFaultPlan(1).
		CrashRank(2, "compute").
		CorruptMessage(3, 0, 1).
		FailWrite("volume.raw.msc", 1)
	res := computeWithin(t, vol, Options{
		Procs: 8, FullMerge: true, Persistence: 0.15,
		Faults: plan,
	})
	rep := res.FaultReport
	if !rep.Faulty() {
		t.Fatal("fault report empty under injection")
	}
	if rep.RankCrashes != 1 || rep.Corruptions != 1 || rep.IORetries < 1 {
		t.Errorf("report %v; want 1 crash, 1 corruption, >=1 I/O retry", &rep)
	}
	lost := slices.Concat(rep.RestoredBlocks, rep.RecoveredBlocks)
	slices.Sort(lost)
	lost = slices.Compact(lost)
	if len(rep.RecoveredBlocks) != len(lost) || len(lost) == 0 {
		t.Errorf("lost %v recovered %v", lost, rep.RecoveredBlocks)
	}
	if res.Nodes != clean.Nodes {
		t.Errorf("faulty nodes %v, fault-free %v", res.Nodes, clean.Nodes)
	}
	if res.Merged() == nil {
		t.Fatal("no merged complex after recovery")
	}
	// The output file holds the merged complex's serialized payload and
	// a footer derived from it (size, CRC, region), so equal payloads
	// and regions mean equal output bytes.
	got, want := res.Merged(), clean.Merged()
	if !bytes.Equal(got.Serialize(), want.Serialize()) || !slices.Equal(got.Region, want.Region) {
		t.Error("recovered output differs from the fault-free run")
	}
}

func TestPublicTraceKnob(t *testing.T) {
	vol := Sinusoid(17, 2)
	plain, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run carries a Trace")
	}

	res, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.15, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run missing Trace")
	}
	if res.Nodes != plain.Nodes {
		t.Errorf("tracing changed the result: %v vs %v", res.Nodes, plain.Nodes)
	}
	stats := res.Trace.StageStats(StageSpanNames...)
	if len(stats) != len(StageSpanNames) {
		t.Fatalf("%d stage stats, want %d", len(stats), len(StageSpanNames))
	}
	var buf strings.Builder
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Error("trace JSON missing traceEvents")
	}
	buf.Reset()
	WriteStageStats(&buf, stats)
	if !strings.Contains(buf.String(), "compute") {
		t.Error("stage table missing compute row")
	}
}

// TestPublicFaultTrace: a crash during compute surfaces on the trace
// as one fault:crash instant on the crashed rank's own track, tagged
// with the stage that lost state, and its recovery as a rebuild span.
func TestPublicFaultTrace(t *testing.T) {
	vol := Sinusoid(17, 2)
	plan := NewFaultPlan(1).CrashRank(2, "compute")
	res := computeWithin(t, vol, Options{
		Procs: 8, FullMerge: true, Persistence: 0.15,
		Faults: plan, Trace: true,
	})
	var crashes []obs.Instant
	for _, in := range res.Trace.Instants(2) {
		if in.Name == "fault:crash" {
			crashes = append(crashes, in)
		}
	}
	if len(crashes) != 1 {
		t.Fatalf("rank 2 has %d fault:crash instants, want 1", len(crashes))
	}
	if stage, _ := crashes[0].Attr("stage"); stage.Str() != "compute" {
		t.Errorf("fault:crash stage = %q, want compute", stage.Str())
	}
	rebuilt := false
	for id := 0; id < res.Procs && !rebuilt; id++ {
		for _, s := range res.Trace.Spans(id) {
			if s.Name == "rebuild" {
				rebuilt = true
				break
			}
		}
	}
	if !rebuilt {
		t.Error("no rank's track has a rebuild span")
	}
}

// TestResultTruncated: a noise field has (saddle, saddle) pairs joined
// by more arcs than the tracer keeps, and Result.Truncated reports how
// many were clamped, summed over the per-block traces.
func TestResultTruncated(t *testing.T) {
	dims := Dims{17, 17, 17}
	vol := RandomField(dims, 1)
	res, err := Compute(vol, Options{Procs: 8, FullMerge: true, Persistence: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := grid.Decompose(dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range dec.Blocks {
		field := gradient.Compute(cube.New(dims, b, vol.SubVolume(b.Lo, b.Hi)), dec)
		want += mscomplex.FromField(field, dec, mscomplex.TraceOptions{}).Truncated
	}
	if want == 0 {
		t.Fatal("no block clamped a saddle pair; the field no longer exercises the cap")
	}
	t.Logf("%d saddle pairs clamped", want)
	if res.Truncated != want {
		t.Errorf("Result.Truncated = %d, per-block traces clamped %d", res.Truncated, want)
	}
}
