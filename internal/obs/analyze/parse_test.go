package analyze_test

import (
	"bytes"
	"strings"
	"testing"

	"parms/internal/obs"
	"parms/internal/obs/analyze"
)

// Hand-written traces a well-formed writer never produces.
const (
	// negativeTid names a rank below zero.
	negativeTid = `{"traceEvents":[{"name":"x","ph":"X","tid":-1,"ts":0,"dur":1}]}`
	// loneRound holds one round:3 span and no rounds 0-2.
	loneRound = `{"traceEvents":[{"name":"round:3","ph":"X","tid":0,"ts":0,"dur":1,"args":{"radix":2}}]}`
)

// smallTrace is a two-rank WriteChromeTrace output: a compute span per
// rank, one merge round, a timeout instant and one consumed flow.
func smallTrace(t testing.TB) []byte {
	tr := obs.NewTracer(2)
	for id := 0; id < 2; id++ {
		r := tr.Rank(id)
		r.Span("block", 0, 1, obs.I("id", int64(id)))
		r.Span("round:0", 1, 3, obs.I("radix", 2), obs.I("blocks_after", 1))
	}
	tr.Rank(1).Span("serialize", 1, 1.5, obs.I("block", 1), obs.I("bytes", 64))
	tr.Rank(0).Span("glue", 2, 2.5, obs.I("block", 1))
	tr.Rank(0).Instant("fault:timeout", 2, obs.I("src", 1), obs.I("round", 0), obs.F("wait_s", 0.5))
	fr := tr.Flows()
	fr.Complete(fr.Begin(1, 1, 0, 7, 64, obs.FlowP2P, 1.5, 2), 1, 2)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseChromeTraceMalformed: out-of-range tids are errors, and a
// round index no other round span backs does not size the report.
func TestParseChromeTraceMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"negative tid":             negativeTid,
		"tid past the event count": `{"traceEvents":[{"name":"x","ph":"i","tid":1,"ts":0}]}`,
	} {
		if _, err := analyze.ParseChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	in, err := analyze.ParseChromeTrace(strings.NewReader(loneRound))
	if err != nil {
		t.Fatal(err)
	}
	if rep := analyze.Analyze(in); len(rep.Rounds) != 0 || len(rep.Radices) != 0 {
		t.Errorf("lone round:3 span yields rounds %+v radices %v, want none", rep.Rounds, rep.Radices)
	}

	in, err = analyze.ParseChromeTrace(bytes.NewReader(smallTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze.Analyze(in)
	if rep.Procs != 2 || len(rep.Rounds) != 1 || rep.Rounds[0].WaitSeconds != 1.5 {
		t.Errorf("small trace: procs %d rounds %+v, want 2 ranks and one round with 1.5s of wait",
			rep.Procs, rep.Rounds)
	}
}

// FuzzParseChromeTrace: no input panics the parser, and every input it
// accepts can be analyzed.
func FuzzParseChromeTrace(f *testing.F) {
	f.Add(smallTrace(f))
	f.Add([]byte(negativeTid))
	f.Add([]byte(loneRound))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := analyze.ParseChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		analyze.Analyze(in)
	})
}
