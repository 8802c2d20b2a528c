package pipeline

import (
	"bytes"
	"encoding/json"
	"testing"

	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/obs"
	"parms/internal/pario"
	"parms/internal/synth"
	"parms/internal/vtime"
)

// runTraced executes a fault-free full-merge pipeline with tracing on.
func runTraced(t *testing.T, procs int, vol *grid.Volume) *Result {
	t.Helper()
	c, err := mpsim.New(mpsim.Config{Procs: procs, Trace: obs.NewTracer(procs)})
	if err != nil {
		t.Fatal(err)
	}
	pario.WriteVolume(c.FS(), "vol", vol)
	res, err := Run(c, Params{
		File: "vol", Dims: vol.Dims, DType: grid.F32,
		Radices: merge.Full(procs).Radices, Persistence: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run returned a nil Trace")
	}
	return res
}

// stageSpans returns rank id's top-level stage spans in emission order.
func stageSpans(t *testing.T, tr *obs.Tracer, id int) []obs.Span {
	t.Helper()
	want := make(map[string]bool, len(StageSpanNames))
	for _, n := range StageSpanNames {
		want[n] = true
	}
	var out []obs.Span
	for _, s := range tr.Spans(id) {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// TestTraceSpansTileTimeline is the golden tiling property: on every
// rank the stage spans (each stage followed by its boundary sync span)
// partition [0, end of sync:write] with no gaps and no overlaps, the
// allreduced boundary stamped on each sync span equals the max stage
// span end across ranks, and Result.Times is exactly the difference of
// consecutive boundaries.
func TestTraceSpansTileTimeline(t *testing.T) {
	const procs = 8
	res := runTraced(t, procs, synth.Sinusoid(17, 2))
	tr := res.Trace
	if tr.Procs() != procs {
		t.Fatalf("trace has %d ranks, want %d", tr.Procs(), procs)
	}

	// Max end per span name across ranks, and the boundary attr of each
	// sync span (identical on every rank by construction).
	maxEnd := make(map[string]vtime.Time)
	boundaries := make(map[string]float64)
	for id := 0; id < procs; id++ {
		spans := stageSpans(t, tr, id)
		if len(spans) != len(StageSpanNames) {
			t.Fatalf("rank %d: %d stage spans, want %d", id, len(spans), len(StageSpanNames))
		}
		for i, s := range spans {
			if s.Name != StageSpanNames[i] {
				t.Fatalf("rank %d span %d: %q, want %q", id, i, s.Name, StageSpanNames[i])
			}
			if i == 0 {
				if s.Start != 0 {
					t.Errorf("rank %d: first span starts at %v, want 0", id, s.Start)
				}
			} else if s.Start != spans[i-1].End {
				t.Errorf("rank %d: %q starts at %v but %q ended at %v (gap or overlap)",
					id, s.Name, s.Start, spans[i-1].Name, spans[i-1].End)
			}
			if s.End < s.Start {
				t.Errorf("rank %d: %q ends before it starts", id, s.Name)
			}
			if s.End > maxEnd[s.Name] {
				maxEnd[s.Name] = s.End
			}
			if b, ok := s.Attr("boundary"); ok {
				if prev, seen := boundaries[s.Name]; seen && prev != b.Float() {
					t.Errorf("%q boundary differs across ranks: %v vs %v", s.Name, prev, b.Float())
				}
				boundaries[s.Name] = b.Float()
			}
		}
	}

	// The allreduced boundary is the max clock at entry to the sync
	// collective, i.e. the max end of the stage span it closes.
	for _, stage := range []string{"read", "compute", "merge", "write"} {
		if got, want := boundaries["sync:"+stage], float64(maxEnd[stage]); got != want {
			t.Errorf("boundary(sync:%s) = %v, want max %s span end %v", stage, got, stage, want)
		}
	}

	// Result.Times is exactly the boundary differences — what an
	// MPI_Wtime-after-barrier trace would report.
	t0 := boundaries["sync:init"]
	wantTimes := StageTimes{
		Read:    boundaries["sync:read"] - t0,
		Compute: boundaries["sync:compute"] - boundaries["sync:read"],
		Merge:   boundaries["sync:merge"] - boundaries["sync:compute"],
		Write:   boundaries["sync:write"] - boundaries["sync:merge"],
		Total:   boundaries["sync:write"] - t0,
	}
	if res.Times != wantTimes {
		t.Errorf("Result.Times = %+v, want boundary differences %+v", res.Times, wantTimes)
	}

	// Sub-spans (read:block, block, serialize, glue, ...) must stay
	// within the run and never precede time zero.
	for id := 0; id < procs; id++ {
		for _, s := range tr.Spans(id) {
			if s.Start < 0 || s.End > maxEnd["sync:write"] {
				t.Errorf("rank %d: span %q [%v, %v] outside run [0, %v]",
					id, s.Name, s.Start, s.End, maxEnd["sync:write"])
			}
		}
	}
}

// TestTraceDeterminism: two identically configured fault-free runs must
// serialize to byte-identical trace JSON.
func TestTraceDeterminism(t *testing.T) {
	vol := synth.Sinusoid(17, 2)
	var traces [2][]byte
	for i := range traces {
		res := runTraced(t, 8, vol)
		var tb bytes.Buffer
		if err := res.Trace.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		traces[i] = tb.Bytes()
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Error("trace JSON differs between identical runs")
	}
}

// TestTrace64Ranks checks the exported Chrome trace of a 64-rank run:
// one track per rank, timestamps monotonic within each track, and the
// per-stage maxima recoverable from the JSON matching Result.Times.
func TestTrace64Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank run in -short mode")
	}
	const procs = 64
	res := runTraced(t, procs, synth.Sinusoid(33, 4))
	var buf bytes.Buffer
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	tracks := make(map[int]float64) // last span ts per tid
	seen := make(map[int]bool)
	stageMax := make(map[string]float64) // span name -> max end, µs
	for _, ev := range tf.TraceEvents {
		seen[ev.Tid] = true
		if ev.Ph != "X" {
			continue
		}
		if last, ok := tracks[ev.Tid]; ok && ev.Ts < last {
			t.Fatalf("tid %d: ts %v goes backwards (last %v)", ev.Tid, ev.Ts, last)
		}
		tracks[ev.Tid] = ev.Ts
		if end := ev.Ts + ev.Dur; end > stageMax[ev.Name] {
			stageMax[ev.Name] = end
		}
	}
	if len(seen) != procs {
		t.Errorf("trace covers %d tracks, want %d", len(seen), procs)
	}
	// Each stage boundary is the max stage-span end across ranks (the
	// clocks all start at 0, so the init boundary is 0), and Result.Times
	// is boundary differences. Reproduce that from the exported JSON to
	// the trace's fixed-point µs resolution.
	want := map[string]float64{
		"read":    stageMax["read"] / 1e6,
		"compute": (stageMax["compute"] - stageMax["read"]) / 1e6,
		"merge":   (stageMax["merge"] - stageMax["compute"]) / 1e6,
		"write":   (stageMax["write"] - stageMax["merge"]) / 1e6,
	}
	got := map[string]float64{
		"read": res.Times.Read, "compute": res.Times.Compute,
		"merge": res.Times.Merge, "write": res.Times.Write,
	}
	for stage, w := range want {
		if !within(got[stage], w, 1e-8) {
			t.Errorf("Times.%s = %v, trace says %v", stage, got[stage], w)
		}
	}
	if !within(res.Times.Total, stageMax["write"]/1e6, 1e-8) {
		t.Errorf("Times.Total = %v, trace max write end %v s", res.Times.Total, stageMax["write"]/1e6)
	}
}

func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
