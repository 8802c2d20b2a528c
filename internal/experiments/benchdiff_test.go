package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func gateBaseline() *BenchResult {
	return &BenchResult{
		Dataset: "test",
		Runs: []BenchRun{{
			Procs: 8, Blocks: 8,
			ReadSeconds: 1.0, ComputeSeconds: 2.0, MergeSeconds: 0.5,
			WriteSeconds: 0.25, TotalSeconds: 3.75,
			PeakPayloadBytes: 1000, BytesSent: 5000, BytesRecv: 5000,
			Nodes: [4]int{10, 20, 20, 10}, Arcs: 99,
		}},
	}
}

func TestCompareBenchPasses(t *testing.T) {
	base := gateBaseline()
	fresh := gateBaseline()
	// Faster is always fine; slower within tolerance is fine too.
	fresh.Runs[0].ComputeSeconds = 1.5
	fresh.Runs[0].MergeSeconds = 0.5 * 1.04
	if v := CompareBench(base, fresh, 0.05); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	// Extra runs in the fresh sweep (a larger machine) are not a failure.
	fresh.Runs = append(fresh.Runs, BenchRun{Procs: 16})
	if v := CompareBench(base, fresh, 0.05); len(v) != 0 {
		t.Errorf("extra fresh run flagged: %v", v)
	}
}

func TestCompareBenchCatchesDrift(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BenchRun)
		want   string
	}{
		{"bytes_sent", func(r *BenchRun) { r.BytesSent++ }, "bytes_sent drifted"},
		{"peak_payload", func(r *BenchRun) { r.PeakPayloadBytes-- }, "peak_payload_bytes drifted"},
		{"nodes", func(r *BenchRun) { r.Nodes[2]++ }, "nodes drifted"},
		{"arcs", func(r *BenchRun) { r.Arcs++ }, "arcs drifted"},
		{"merge_time", func(r *BenchRun) { r.MergeSeconds *= 1.06 }, "merge_seconds regressed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := gateBaseline()
			tc.mutate(&fresh.Runs[0])
			v := CompareBench(gateBaseline(), fresh, 0.05)
			if len(v) != 1 || !strings.Contains(v[0], tc.want) {
				t.Errorf("violations = %v, want one containing %q", v, tc.want)
			}
		})
	}
	t.Run("missing_run", func(t *testing.T) {
		fresh := gateBaseline()
		fresh.Runs[0].Procs = 16
		v := CompareBench(gateBaseline(), fresh, 0.05)
		if len(v) != 1 || !strings.Contains(v[0], "missing from fresh sweep") {
			t.Errorf("violations = %v, want one missing-run violation", v)
		}
	})
}

func TestCompareBenchCompute(t *testing.T) {
	fresh := gateBaseline()
	// Only compute_seconds is judged: drifted counters and slower
	// merges are report-only, and 9% slower compute is inside the band.
	fresh.Runs[0].BytesSent++
	fresh.Runs[0].MergeSeconds *= 2
	fresh.Runs[0].ComputeSeconds *= 1.09
	if v := CompareBenchCompute(gateBaseline(), fresh, 0.10); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	fresh.Runs[0].ComputeSeconds = 2.0 * 1.11
	if v := CompareBenchCompute(gateBaseline(), fresh, 0.10); len(v) != 1 ||
		!strings.Contains(v[0], "compute_seconds regressed") {
		t.Errorf("violations = %v, want one compute regression", v)
	}
	fresh.Runs[0].Procs = 16
	if v := CompareBenchCompute(gateBaseline(), fresh, 0.10); len(v) != 1 ||
		!strings.Contains(v[0], "missing from fresh sweep") {
		t.Errorf("violations = %v, want one missing-run violation", v)
	}
}

func TestWriteBenchDelta(t *testing.T) {
	base := gateBaseline()
	fresh := gateBaseline()
	fresh.Runs[0].ComputeSeconds = 1.0 // -50%
	fresh.Runs[0].MergeSeconds = 0.6   // +20%
	fresh.Runs[0].BytesSent = 6000     // +20%

	var buf bytes.Buffer
	WriteBenchDelta(&buf, base, fresh)
	out := buf.String()
	for _, want := range []string{
		"procs", "metric", "baseline", "fresh", "delta",
		"compute", "2.0000s", "1.0000s", "-50.0%",
		"merge", "0.6000s", "+20.0%",
		"sent B", "6000", "+20.0%",
		"read", "=", // unchanged stage renders as "="
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}

	// A baseline rank count absent from the fresh sweep is reported, not
	// silently dropped.
	fresh.Runs[0].Procs = 16
	buf.Reset()
	WriteBenchDelta(&buf, base, fresh)
	if !strings.Contains(buf.String(), "run missing from fresh sweep") {
		t.Errorf("missing run not reported:\n%s", buf.String())
	}
}

func TestDeltaPercent(t *testing.T) {
	cases := []struct {
		base, got float64
		want      string
	}{
		{1, 1, "="},
		{0, 0, "="},
		{0, 5, "new"},
		{2, 1, "-50.0%"},
		{2, 3, "+50.0%"},
	}
	for _, tc := range cases {
		if got := deltaPercent(tc.base, tc.got); got != tc.want {
			t.Errorf("deltaPercent(%g, %g) = %q, want %q", tc.base, tc.got, got, tc.want)
		}
	}
}

func TestDecodeBenchJSONRejectsEmpty(t *testing.T) {
	if _, err := DecodeBenchJSON(strings.NewReader(`{"runs":[]}`)); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := DecodeBenchJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed snapshot accepted")
	}
}
