package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestFlowRecorderRoundTrip(t *testing.T) {
	fr := NewFlowRecorder(4)
	id := fr.Begin(0, 0, 1, 7, 128, FlowP2P, 1.0, 1.5)
	if id == (FlowID{}) {
		t.Fatal("Begin returned the zero id while recording")
	}
	fr.Complete(id, 1.25, 1.75)
	fr.Complete(id, 9.0, 9.0) // duplicate completion must not overwrite
	fr.Emit(2, 3, 2, 0, 0, FlowMigratedRestore, 2.0, 2.5)

	flows := fr.Flows()
	if len(flows) != 2 {
		t.Fatalf("Flows() = %d records, want 2", len(flows))
	}
	f := flows[0]
	if !f.Done || f.Src != 0 || f.Dst != 1 || f.Tag != 7 || f.Bytes != 128 || f.Kind != FlowP2P {
		t.Errorf("flow header mismatch: %+v", f)
	}
	if f.SendVT != 1.0 || f.ArriveVT != 1.5 || f.RecvStartVT != 1.25 || f.RecvVT != 1.75 {
		t.Errorf("flow times mismatch: %+v", f)
	}
	if w := f.WaitSeconds(); w != 0.25 {
		t.Errorf("WaitSeconds = %g, want 0.25 (arrive - recv start)", w)
	}
	s := flows[1]
	if !s.Done || s.Kind != FlowMigratedRestore || s.Src != 3 || s.Dst != 2 {
		t.Errorf("synthetic flow mismatch: %+v", s)
	}
	if s.WaitSeconds() != 0 {
		t.Errorf("synthetic flow has nonzero wait: %+v", s)
	}
	if fr.Started() != 2 {
		t.Errorf("Started = %d, want 2", fr.Started())
	}

	// A receive completing "before" the send clamps up, never backwards.
	id = fr.Begin(1, 1, 0, 0, 1, FlowP2P, 5.0, 5.0)
	fr.Complete(id, 4.0, 4.5)
	for _, f := range fr.Flows() {
		if f.Done && f.RecvVT < f.SendVT {
			t.Errorf("recv %v before send %v", f.RecvVT, f.SendVT)
		}
	}
}

// TestFlowRecorderCountOnly: count-only mode records nothing, Emit
// included, while Started still counts every send.
func TestFlowRecorderCountOnly(t *testing.T) {
	fr := NewFlowRecorder(2)
	fr.CountOnly()
	for i := 0; i < 5; i++ {
		if id := fr.Begin(0, 0, 1, 0, 8, FlowP2P, 0, 0); id != (FlowID{}) {
			t.Errorf("count-only Begin returned live id %+v", id)
		}
	}
	fr.Emit(1, 0, 1, 0, 0, FlowMigratedRestore, 1, 2)
	if len(fr.Flows()) != 0 {
		t.Errorf("count-only mode recorded %d flows", len(fr.Flows()))
	}
	if fr.Started() != 5 {
		t.Errorf("count-only Started = %d, want 5", fr.Started())
	}
}

func TestWriteFlowsJSONDeterministic(t *testing.T) {
	build := func() *FlowRecorder {
		fr := NewFlowRecorder(3)
		id := fr.Begin(0, 0, 2, 4, 64, FlowP2P, 0.5, 0.625)
		fr.Complete(id, 0.5, 0.75)
		fr.Begin(1, 1, 0, 9, 32, FlowCollective, 1.0, 1.25) // left orphan
		fr.Emit(2, 0, 2, 0, 16, FlowMigratedRestore, 2.0, 2.5)
		return fr
	}
	var a, b bytes.Buffer
	if err := build().WriteFlowsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteFlowsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("equal recorders produced different JSON")
	}
	var doc struct {
		Procs   int    `json:"procs"`
		Started int64  `json:"started"`
		Flows   []Flow `json:"flows"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("WriteFlowsJSON emitted invalid JSON: %v\n%s", err, a.String())
	}
	if doc.Procs != 3 || doc.Started != 3 || len(doc.Flows) != 3 {
		t.Errorf("parsed procs=%d started=%d flows=%d, want 3/3/3",
			doc.Procs, doc.Started, len(doc.Flows))
	}
}

func TestBuildTimeline(t *testing.T) {
	spans := [][]Span{{{Name: "compute", Start: 0, End: 8}}}
	flows := []Flow{
		// Consumed: sent at 1.5, arrives 4.5, receiver blocked 2.5→4.5.
		{Seq: 0, Emitter: 0, Src: 0, Dst: 1, Bytes: 100, Kind: FlowP2P,
			SendVT: 1.5, ArriveVT: 4.5, RecvStartVT: 2.5, RecvVT: 4.75, Done: true},
		// Orphan: in flight from send to end of run.
		{Seq: 1, Emitter: 0, Src: 0, Dst: 1, Bytes: 40, Kind: FlowP2P,
			SendVT: 6.5, ArriveVT: 7.0},
	}
	tl := BuildTimeline(spans, flows, 8)
	if len(tl) != 8 {
		t.Fatalf("got %d buckets, want 8", len(tl))
	}
	if tl[0].Start != 0 || tl[7].End != 8 {
		t.Errorf("timeline range [%g, %g], want [0, 8]", tl[0].Start, tl[7].End)
	}
	for i, b := range tl {
		if b.ActiveSpans != 1 {
			t.Errorf("bucket %d ActiveSpans = %d, want 1 (span tiles the run)", i, b.ActiveSpans)
		}
	}
	if tl[1].MsgsSent != 1 || tl[1].BytesSent != 100 || tl[6].MsgsSent != 1 || tl[6].BytesSent != 40 {
		t.Errorf("send binning wrong: %+v", tl)
	}
	if tl[4].MsgsRecv != 1 || tl[4].BytesRecv != 100 {
		t.Errorf("recv binning wrong: bucket 4 = %+v", tl[4])
	}
	for i, want := range []int64{0, 0, 100, 100, 100, 0, 0, 40} {
		if tl[i].BytesInFlight != want {
			t.Errorf("bucket %d BytesInFlight = %d, want %d", i, tl[i].BytesInFlight, want)
		}
	}
	// Wait 2.5→4.5 overlaps buckets 2, 3, 4 as 0.5 + 1.0 + 0.5.
	for i, want := range []float64{0, 0, 0.5, 1.0, 0.5, 0, 0, 0} {
		if diff := tl[i].WaitSeconds - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bucket %d WaitSeconds = %g, want %g", i, tl[i].WaitSeconds, want)
		}
	}

	if BuildTimeline(nil, nil, 4) != nil {
		t.Error("empty inputs must yield a nil timeline")
	}
}
