package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"parms"
)

type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics keeps BENCHMARK.json and the metric tables of
// the program in step.
func TestDeclaredMetrics(t *testing.T) {
	d := readBenchmarkJSON(t)
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEndMetrics)
	same("per_layer", d.PerLayer, perLayerMetrics)
	ws := workloads(false)
	if len(d.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(d.Workloads), len(ws))
	}
	for i, w := range ws {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, d.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyWorkloads runs every workload at tiny size in both modes, on
// the default seed (pinned outputs) and on another seed, and checks
// that every declared metric is reported with its unit.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads(true) {
		for _, tc := range []struct {
			name  string
			seed  int64
			trace bool
		}{
			{"end-to-end", defaultSeed, false},
			{"end-to-end-seed2", 2, false},
			{"traced", defaultSeed, true},
		} {
			t.Run(w.name+"/"+tc.name, func(t *testing.T) {
				cfg := config{workload: w.name, seed: tc.seed, trace: tc.trace, tiny: true}
				if tc.trace {
					cfg.out = t.TempDir()
				}
				var out bytes.Buffer
				rep, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < minSamples {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				want := endToEndMetrics
				if tc.trace {
					want = perLayerMetrics
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
					case notApplicable(w, m.name) && got.Value != 0:
						t.Errorf("metric %s is not applicable but reads %v", m.name, got.Value)
					}
				}
				if !tc.trace {
					for _, m := range endToEndMetrics {
						if rep.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", m.name, rep.Metrics[m.name].Value)
						}
					}
					return
				}
				spans, err := os.ReadFile(filepath.Join(cfg.out, "spans-"+w.name+"-1.json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct{ TraceEvents []map[string]any }
				if err := json.Unmarshal(spans, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Fatalf("span file: %d events, %v", len(doc.TraceEvents), err)
				}
			})
		}
	}
}

// TestChecksFail shows that the output checks reject a changed output,
// a changed truncation count and an unexpected fault report.
func TestChecksFail(t *testing.T) {
	w, err := findWorkload("noise-merge", true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parms.Compute(w.volume(defaultSeed), w.options(defaultSeed))
	k := newChecker(w, defaultSeed)
	if err := k.check(res, err); err != nil {
		t.Fatalf("unchanged output rejected: %v", err)
	}
	w.pinned.Arcs++
	if err := newChecker(w, defaultSeed).check(res, nil); err == nil {
		t.Error("output differing from the pin accepted")
	}
	if err := k.checkTruncated(w.pinnedTruncated + 1); err == nil {
		t.Error("changed truncation count accepted")
	}

	rt, err := findWorkload("rt-recovery", true)
	if err != nil {
		t.Fatal(err)
	}
	vol := rt.volume(defaultSeed)
	res, err = parms.Compute(vol, rt.options(defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(res.FaultReport, rt.drill); err != nil {
		t.Fatalf("expected recovery rejected: %v", err)
	}
	bad := res.FaultReport
	bad.Timeouts, bad.Recomputes = 1, 1
	if err := checkReport(bad, rt.drill); err == nil {
		t.Error("a timed-out, recomputed recovery accepted")
	}
	k = newChecker(rt, defaultSeed)
	if err := k.check(res, nil); err == nil {
		t.Error("recovery accepted without a fault-free twin")
	}
}
