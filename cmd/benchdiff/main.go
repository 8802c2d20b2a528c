// Command benchdiff gates a fresh bench sweep against a committed
// baseline snapshot. It first prints a human-readable delta table
// (per-stage modeled times, communication volume, peak merge payload;
// baseline → fresh with the relative change), then applies the gate:
// the virtual cluster is deterministic, so communication volume, peak
// payload and output complex sizes must match the baseline byte for
// byte; modeled per-stage times may only regress within a tolerance
// (improvements always pass).
//
// Usage:
//
//	msbench -exp bench -q -json fresh.json
//	benchdiff -fresh fresh.json [-baseline BENCH_x.json] [-tol 0.05]
//	benchdiff -fresh fresh.json -compute [-compute-tol 0.10]
//
// With -compute, the strict gate is replaced by the compute gate: only
// the sweep runs' modeled compute_seconds is judged, failing on
// regressions past -compute-tol; improvements and changes to every
// other quantity are report-only. This is the CI band for performance
// PRs, which legitimately change deterministic counters.
//
// When -baseline is omitted, the lexically newest timestamped
// BENCH_<timestamp>.json in the current directory (excluding the fresh
// file) is used — the timestamped names sort chronologically, and the
// gates' own fresh files (BENCH_nightly.json, BENCH_compute.json) are
// never taken for a baseline. Exits 1 when the gate fails, 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"parms/internal/experiments"
)

func main() {
	fresh := flag.String("fresh", "", "fresh bench snapshot to gate (required)")
	baseline := flag.String("baseline", "", "baseline snapshot (default: newest BENCH_<timestamp>.json here)")
	tol := flag.Float64("tol", 0.05, "allowed fractional regression in modeled stage times")
	compute := flag.Bool("compute", false, "compute gate: judge only modeled compute_seconds regressions")
	computeTol := flag.Float64("compute-tol", 0.10, "allowed fractional compute_seconds regression with -compute")
	flag.Parse()

	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -fresh is required")
		flag.Usage()
		os.Exit(2)
	}
	if *baseline == "" {
		found, err := newestBaseline(*fresh)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		*baseline = found
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	got, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: fresh: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("bench delta: %s vs baseline %s\n", *fresh, *baseline)
	experiments.WriteBenchDelta(os.Stdout, base, got)
	fmt.Println()

	var violations []string
	if *compute {
		violations = experiments.CompareBenchCompute(base, got, *computeTol)
	} else {
		violations = experiments.CompareBench(base, got, *tol)
	}
	if len(violations) > 0 {
		fmt.Printf("benchdiff: FAIL — %s vs baseline %s (%d violations)\n",
			*fresh, *baseline, len(violations))
		for _, v := range violations {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)
	}
	if *compute {
		fmt.Printf("benchdiff: OK — %s within compute band of baseline %s (%d runs, compute_seconds tolerance %.0f%%)\n",
			*fresh, *baseline, len(base.Runs), 100**computeTol)
		return
	}
	fmt.Printf("benchdiff: OK — %s matches baseline %s (%d runs, stage-time tolerance %.0f%%)\n",
		*fresh, *baseline, len(base.Runs), 100**tol)
}

// newestBaseline picks the lexically newest BENCH_<timestamp>.json in
// the current directory, skipping the fresh snapshot itself.
func newestBaseline(fresh string) (string, error) {
	matches, err := filepath.Glob("BENCH_[0-9]*.json")
	if err != nil {
		return "", err
	}
	freshAbs, _ := filepath.Abs(fresh)
	var candidates []string
	for _, m := range matches {
		abs, _ := filepath.Abs(m)
		if abs == freshAbs {
			continue
		}
		candidates = append(candidates, m)
	}
	if len(candidates) == 0 {
		return "", fmt.Errorf("no baseline BENCH_<timestamp>.json found (pass -baseline)")
	}
	sort.Strings(candidates)
	return candidates[len(candidates)-1], nil
}

func load(path string) (*experiments.BenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return experiments.DecodeBenchJSON(f)
}
