package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parms/internal/vtime"
)

// fill records a small deterministic two-rank trace.
func fill(tr *Tracer) {
	r0 := tr.Rank(0)
	r0.Span("read", 0, 1.5, I("bytes", 4096))
	r0.Span("compute", 1.5, 3, I("block", 0))
	r0.Instant("fault:crash", 2, S("stage", "compute"))
	r1 := tr.Rank(1)
	r1.Span("read", 0, 1, I("bytes", 2048))
	r1.Span("compute", 1, 4, I("block", 1))
}

func TestChromeTraceWellFormedAndDeterministic(t *testing.T) {
	tr := NewTracer(2)
	fill(tr)
	var a, b bytes.Buffer
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same tracer differ")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 1 process_name + 2 thread_name + 4 spans + 1 instant.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}
	lastTs := map[float64]float64{}
	for _, ev := range doc.TraceEvents {
		ph := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		tid := ev["tid"].(float64)
		ts := ev["ts"].(float64)
		if ts < lastTs[tid] {
			t.Fatalf("track %v not monotonic: %v after %v", tid, ts, lastTs[tid])
		}
		lastTs[tid] = ts
		if ph == "X" && ev["dur"].(float64) < 0 {
			t.Fatal("negative span duration")
		}
	}
}

func TestStageStats(t *testing.T) {
	tr := NewTracer(4)
	for id := 0; id < 4; id++ {
		end := 1.0 + float64(id) // durations 1, 2, 3, 4
		tr.Rank(id).Span("compute", 0, vtime.Time(end))
	}
	stats := tr.StageStats("compute", "absent")
	if len(stats) != 2 {
		t.Fatalf("got %d stats", len(stats))
	}
	c := stats[0]
	if c.Count != 4 || c.Max != 4 || c.Mean != 2.5 || c.MaxEnd != 4 {
		t.Fatalf("compute stat %+v", c)
	}
	if c.Imbalance != 4/2.5 {
		t.Fatalf("imbalance = %v", c.Imbalance)
	}
	if c.P50 != 2 || c.P95 != 4 {
		t.Fatalf("p50=%v p95=%v", c.P50, c.P95)
	}
	if stats[1].Count != 0 {
		t.Fatalf("absent stage has count %d", stats[1].Count)
	}
	var buf bytes.Buffer
	WriteStageStats(&buf, stats)
	if !strings.Contains(buf.String(), "compute") || !strings.Contains(buf.String(), "absent") {
		t.Fatalf("summary table:\n%s", buf.String())
	}
}

func TestStageStatsDiscoversNamesInStartOrder(t *testing.T) {
	tr := NewTracer(1)
	tr.Rank(0).Span("b", 1, 2)
	tr.Rank(0).Span("a", 0, 1)
	stats := tr.StageStats()
	if len(stats) != 2 || stats[0].Name != "a" || stats[1].Name != "b" {
		t.Fatalf("order: %+v", stats)
	}
}
