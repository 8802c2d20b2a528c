package analyze_test

import (
	"bytes"
	"testing"

	"parms/internal/obs"
	"parms/internal/obs/analyze"
)

// TestParseChromeTraceFlowRoundTrip: the flow events WriteChromeTrace
// appends must come back from ParseChromeTrace as the same records the
// live recorder holds — identity and payload fields exact, virtual
// times to the trace's nanosecond fixed-point resolution. Only consumed
// flows are exported (orphans have no finish event to pair), so the
// comparison is against the recorder's Done subset.
func TestParseChromeTraceFlowRoundTrip(t *testing.T) {
	tr := runTraced(t, nil)
	direct := analyze.FromTracer(tr)
	var want []obs.Flow
	for _, f := range direct.Flows {
		if f.Done {
			want = append(want, f)
		}
	}
	if len(want) == 0 {
		t.Fatal("traced run recorded no consumed flows")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := analyze.ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Flows) != len(want) {
		t.Fatalf("parsed %d flows, recorder has %d consumed", len(parsed.Flows), len(want))
	}
	const tol = 2e-9 // trace timestamps are fixed-point nanoseconds
	kinds := map[string]int{}
	for i, g := range parsed.Flows {
		w := want[i]
		if !g.Done {
			t.Fatalf("flow %d parsed as unconsumed: %+v", i, g)
		}
		if g.Seq != w.Seq || g.Emitter != w.Emitter || g.Src != w.Src || g.Dst != w.Dst ||
			g.Tag != w.Tag || g.Bytes != w.Bytes || g.Kind != w.Kind {
			t.Fatalf("flow %d header mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		for _, times := range [][2]float64{
			{float64(g.SendVT), float64(w.SendVT)},
			{float64(g.ArriveVT), float64(w.ArriveVT)},
			{float64(g.RecvStartVT), float64(w.RecvStartVT)},
			{float64(g.RecvVT), float64(w.RecvVT)},
		} {
			if d := times[0] - times[1]; d > tol || d < -tol {
				t.Fatalf("flow %d time drift %g:\n got %+v\nwant %+v", i, d, g, w)
			}
		}
		kinds[g.Kind]++
	}
	if kinds[obs.FlowP2P] == 0 || kinds[obs.FlowCollective] == 0 {
		t.Errorf("round-tripped kinds %v, want both p2p and collective traffic", kinds)
	}

	// Re-serializing the parsed input's flows through a second parse is a
	// fixpoint: the fixed-point quantization happened once, on export.
	parsed2, err := analyze.ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range parsed.Flows {
		if parsed.Flows[i] != parsed2.Flows[i] {
			t.Fatalf("parse not deterministic at flow %d", i)
		}
	}
}
