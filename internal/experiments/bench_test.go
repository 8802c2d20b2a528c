package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchGolden is the committed bench snapshot. Re-pin it, after a
// declared model change, with
//
//	go run ./cmd/msbench -exp bench -q -json internal/experiments/testdata/bench_golden.json
//
// and name every moved field in CHANGES.
const benchGolden = "testdata/bench_golden.json"

// benchUnpinned are the snapshot fields the exact comparison leaves
// out: the creation time, and the one host-measured field.
var benchUnpinned = map[string]bool{
	"created_at":                           true,
	"tracer_overhead.alloc_bytes_per_flow": true,
}

// tracerBytesPerFlowBudget bounds tracer_overhead.alloc_bytes_per_flow,
// the flow recorder's host allocation per recorded flow. It replaces a
// bound of 0.05 on that allocation divided by the count-only run's,
// which every cut in pipeline allocation tightened. The sweep records
// 5,166 flows; where the budget was set, before the merge hop stopped
// building an intermediate complex, its count-only run allocated at
// least 14.24 MB, so 0.05 of that is 137.9 bytes per flow, and this
// budget rejects whatever the fraction rejected there. While a GC could
// empty the pools partway through a probe run, it read 55–144 bytes
// per flow with another package's tests running beside it; with each
// run collecting first and not again until it ends, 102–108 under the
// same load.
//
// The budget is not checked under the race detector, whose sync.Pool
// drops a quarter of the items put back at random: the two runs then
// miss the pools by different amounts. The modeled fields still are.
const tracerBytesPerFlowBudget = 137

// TestBenchGolden runs the bench sweep as `msbench -exp bench -q` does
// and matches every field of its snapshot exactly against the golden:
// the modeled seconds, imbalance ratios, byte and node counts, and the
// fault drill and tracer probe counters. The whole sweep is virtual
// time, so any difference is a behaviour or model change, not noise.
//
// Exact float equality holds because the cost model's arithmetic is
// evaluated in one fixed order and, on amd64, Go never fuses a
// multiply and an add into one FMA instruction. Other GOARCHs (arm64,
// ppc64le, s390x) may fuse them and round differently, so the test
// skips there.
func TestBenchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the bench golden is pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	res, err := Bench(Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b := res.TracerOverhead.AllocBytesPerFlow; !raceEnabled && b >= tracerBytesPerFlowBudget {
		t.Errorf("tracer_overhead.alloc_bytes_per_flow = %.1f, budget %d", b, tracerBytesPerFlowBudget)
	}
	var fresh bytes.Buffer
	if err := res.WriteJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(benchGolden)
	if err != nil {
		t.Fatal(err)
	}
	var moved []string
	diffJSON("", decodeJSONTree(t, golden), decodeJSONTree(t, fresh.Bytes()), &moved)
	if len(moved) > 0 {
		t.Errorf("%d bench field(s) moved from %s (golden → fresh):\n  %s\n"+
			"a declared model change re-pins with: go run ./cmd/msbench -exp bench -q -json internal/experiments/%s",
			len(moved), benchGolden, strings.Join(moved, "\n  "), benchGolden)
	}
}

// decodeJSONTree decodes a snapshot keeping every number as its JSON
// literal, so equal literals mean bit-identical float64 values.
func decodeJSONTree(t *testing.T, data []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// diffJSON appends one "path: golden → fresh" line for every leaf that
// differs between two decoded JSON trees, skipping benchUnpinned paths.
// A field present on one side only shows as "absent" on the other.
func diffJSON(path string, want, got any, moved *[]string) {
	if benchUnpinned[path] {
		return
	}
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			diffJSON(sub, w[k], g[k], moved)
		}
		return
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		for i := 0; i < len(w) || i < len(g); i++ {
			var wi, gi any
			if i < len(w) {
				wi = w[i]
			}
			if i < len(g) {
				gi = g[i]
			}
			diffJSON(fmt.Sprintf("%s[%d]", path, i), wi, gi, moved)
		}
		return
	default:
		if want == got {
			return
		}
	}
	*moved = append(*moved, fmt.Sprintf("%s: %s → %s", path, jsonLeaf(want), jsonLeaf(got)))
}

func jsonLeaf(v any) string {
	if v == nil {
		return "absent"
	}
	b, _ := json.Marshal(v)
	return string(b)
}
