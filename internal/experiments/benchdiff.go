package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// DecodeBenchJSON parses a bench sweep snapshot written by
// BenchResult.WriteJSON.
func DecodeBenchJSON(r io.Reader) (*BenchResult, error) {
	var b BenchResult
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("experiments: bad bench snapshot: %w", err)
	}
	if len(b.Runs) == 0 {
		return nil, fmt.Errorf("experiments: bench snapshot has no runs")
	}
	return &b, nil
}

// WriteBenchDelta renders a human-readable comparison of two bench
// snapshots: for every rank count present in the baseline, each
// per-stage modeled time, communication volume, and peak merge payload
// as baseline → fresh with the relative change. It reports, it does
// not judge — CompareBench is the gate.
func WriteBenchDelta(w io.Writer, baseline, fresh *BenchResult) {
	index := make(map[int]BenchRun, len(fresh.Runs))
	for _, r := range fresh.Runs {
		index[r.Procs] = r
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "procs\tmetric\tbaseline\tfresh\tdelta\t")
	for _, base := range baseline.Runs {
		got, ok := index[base.Procs]
		if !ok {
			fmt.Fprintf(tw, "%d\t(all)\t-\t-\trun missing from fresh sweep\t\n", base.Procs)
			continue
		}
		rows := []struct {
			name      string
			base, got float64
			seconds   bool
		}{
			{"read", base.ReadSeconds, got.ReadSeconds, true},
			{"compute", base.ComputeSeconds, got.ComputeSeconds, true},
			{"merge", base.MergeSeconds, got.MergeSeconds, true},
			{"write", base.WriteSeconds, got.WriteSeconds, true},
			{"total", base.TotalSeconds, got.TotalSeconds, true},
			{"sent B", float64(base.BytesSent), float64(got.BytesSent), false},
			{"recv B", float64(base.BytesRecv), float64(got.BytesRecv), false},
			{"peak payload B", float64(base.PeakPayloadBytes), float64(got.PeakPayloadBytes), false},
		}
		for _, row := range rows {
			format := "%.0f"
			if row.seconds {
				format = "%.4fs"
			}
			fmt.Fprintf(tw, "%d\t%s\t"+format+"\t"+format+"\t%s\t\n",
				base.Procs, row.name, row.base, row.got, deltaPercent(row.base, row.got))
		}
	}
	switch {
	case baseline.TracerOverhead == nil && fresh.TracerOverhead != nil:
		fmt.Fprintf(tw, "tracer\t(all)\t-\t-\tnew (no baseline tracer overhead)\t\n")
	case baseline.TracerOverhead != nil && fresh.TracerOverhead == nil:
		fmt.Fprintf(tw, "tracer\t(all)\t-\t-\ttracer overhead missing from fresh sweep\t\n")
	case baseline.TracerOverhead != nil:
		base, got := baseline.TracerOverhead, fresh.TracerOverhead
		rows := []struct {
			name      string
			base, got float64
			seconds   bool
		}{
			{"flows started", float64(base.FlowsStarted), float64(got.FlowsStarted), false},
			{"flows recorded", float64(base.FlowsRecorded), float64(got.FlowsRecorded), false},
			{"flow bytes", float64(base.FlowBytes), float64(got.FlowBytes), false},
			{"traced total", base.TracedSeconds, got.TracedSeconds, true},
			{"virtual overhead", base.VirtualOverheadSeconds, got.VirtualOverheadSeconds, true},
			{"alloc overhead", base.AllocOverheadFrac, got.AllocOverheadFrac, false},
		}
		for _, row := range rows {
			format := "%.4f"
			if row.seconds {
				format = "%.4fs"
			}
			fmt.Fprintf(tw, "tracer\t%s\t"+format+"\t"+format+"\t%s\t\n",
				row.name, row.base, row.got, deltaPercent(row.base, row.got))
		}
	}
	switch {
	case baseline.FaultDrill == nil && fresh.FaultDrill != nil:
		fmt.Fprintf(tw, "drill\t(all)\t-\t-\tnew (no baseline fault drill)\t\n")
	case baseline.FaultDrill != nil && fresh.FaultDrill == nil:
		fmt.Fprintf(tw, "drill\t(all)\t-\t-\tfault drill missing from fresh sweep\t\n")
	case baseline.FaultDrill != nil:
		base, got := baseline.FaultDrill, fresh.FaultDrill
		rows := []struct {
			name      string
			base, got float64
			seconds   bool
		}{
			{"migrations", float64(base.Migrations), float64(got.Migrations), false},
			{"timeouts", float64(base.Timeouts), float64(got.Timeouts), false},
			{"timeout wait", base.TimeoutWaitSeconds, got.TimeoutWaitSeconds, true},
			{"ckpts GCed", float64(base.CheckpointsGCed), float64(got.CheckpointsGCed), false},
			{"GC bytes", float64(base.CheckpointGCBytes), float64(got.CheckpointGCBytes), false},
			{"restores", float64(base.CheckpointRestores), float64(got.CheckpointRestores), false},
			{"recomputes", float64(base.Recomputes), float64(got.Recomputes), false},
			{"merge", base.MergeSeconds, got.MergeSeconds, true},
		}
		for _, row := range rows {
			format := "%.0f"
			if row.seconds {
				format = "%.4fs"
			}
			fmt.Fprintf(tw, "drill\t%s\t"+format+"\t"+format+"\t%s\t\n",
				row.name, row.base, row.got, deltaPercent(row.base, row.got))
		}
	}
	tw.Flush()
}

// deltaPercent renders the relative change between two values: "=" for
// no change, "new" when something appears against a zero baseline.
func deltaPercent(base, got float64) string {
	switch {
	case base == got:
		return "="
	case base == 0:
		return "new"
	default:
		return fmt.Sprintf("%+.1f%%", 100*(got/base-1))
	}
}

// CompareBench gates a fresh bench sweep against a committed baseline,
// matching runs by rank count. Virtual time is deterministic, so
// communication volume, peak payload and output complex sizes must
// match the baseline exactly — any drift is a behavior change, not
// noise. Modeled per-stage times fail only when they regress by more
// than tol (a fraction; improvements always pass). The result is one
// human-readable violation per failure, empty when the gate passes.
func CompareBench(baseline, fresh *BenchResult, tol float64) []string {
	var violations []string
	index := make(map[int]BenchRun, len(fresh.Runs))
	for _, r := range fresh.Runs {
		index[r.Procs] = r
	}
	for _, base := range baseline.Runs {
		got, ok := index[base.Procs]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("procs=%d: run missing from fresh sweep", base.Procs))
			continue
		}
		exact := []struct {
			name      string
			base, got int64
		}{
			{"blocks", int64(base.Blocks), int64(got.Blocks)},
			{"bytes_sent", base.BytesSent, got.BytesSent},
			{"bytes_recv", base.BytesRecv, got.BytesRecv},
			{"peak_payload_bytes", base.PeakPayloadBytes, got.PeakPayloadBytes},
			{"arcs", int64(base.Arcs), int64(got.Arcs)},
		}
		for _, e := range exact {
			if e.base != e.got {
				violations = append(violations, fmt.Sprintf(
					"procs=%d: %s drifted %d -> %d (deterministic quantity, exact match required)",
					base.Procs, e.name, e.base, e.got))
			}
		}
		if base.Nodes != got.Nodes {
			violations = append(violations, fmt.Sprintf(
				"procs=%d: nodes drifted %v -> %v (deterministic quantity, exact match required)",
				base.Procs, base.Nodes, got.Nodes))
		}
		stages := []struct {
			name      string
			base, got float64
		}{
			{"read_seconds", base.ReadSeconds, got.ReadSeconds},
			{"compute_seconds", base.ComputeSeconds, got.ComputeSeconds},
			{"merge_seconds", base.MergeSeconds, got.MergeSeconds},
			{"write_seconds", base.WriteSeconds, got.WriteSeconds},
			{"total_seconds", base.TotalSeconds, got.TotalSeconds},
		}
		for _, s := range stages {
			if s.got > s.base*(1+tol) {
				violations = append(violations, fmt.Sprintf(
					"procs=%d: %s regressed %.4f -> %.4f (+%.1f%%, tolerance %.0f%%)",
					base.Procs, s.name, s.base, s.got,
					100*(s.got/s.base-1), 100*tol))
			}
		}
	}
	violations = append(violations, compareFaultDrill(baseline.FaultDrill, fresh.FaultDrill, tol)...)
	violations = append(violations, compareTracerOverhead(baseline.TracerOverhead, fresh.TracerOverhead, tol)...)
	return violations
}

// CompareBenchCompute is the compute gate: it judges only the modeled
// compute_seconds of the sweep runs, failing when a fresh value
// regresses past tol over the baseline. Improvements always pass and
// nothing is matched exactly — this gate answers "did the PR make
// modeled compute slower", nothing else. Runs present in the baseline
// but absent from the fresh sweep still fail: a gate cannot pass by
// measuring less.
func CompareBenchCompute(baseline, fresh *BenchResult, tol float64) []string {
	var violations []string
	index := make(map[int]BenchRun, len(fresh.Runs))
	for _, r := range fresh.Runs {
		index[r.Procs] = r
	}
	for _, base := range baseline.Runs {
		got, ok := index[base.Procs]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("compute: procs=%d run missing from fresh sweep", base.Procs))
			continue
		}
		if got.ComputeSeconds > base.ComputeSeconds*(1+tol) {
			violations = append(violations, fmt.Sprintf(
				"compute: procs=%d compute_seconds regressed %.4f -> %.4f (+%.1f%%, tolerance %.0f%%)",
				base.Procs, base.ComputeSeconds, got.ComputeSeconds,
				100*(got.ComputeSeconds/base.ComputeSeconds-1), 100*tol))
		}
	}
	return violations
}

// maxAllocOverheadFrac is the flow recorder's allocation budget: a
// fresh snapshot recording every message may cost at most this fraction
// of extra host allocations over the count-only run.
const maxAllocOverheadFrac = 0.05

// compareTracerOverhead gates the flow-recorder cost probe. The flow
// counts and payload bytes are deterministic and must match the
// baseline exactly; the traced total carries the stage-time regression
// tolerance. Independently of any baseline, a fresh probe must show
// zero virtual-time overhead (instrumentation never touches the clocks)
// and an allocation overhead under the 5% budget.
func compareTracerOverhead(base, got *TracerOverhead, tol float64) []string {
	var violations []string
	if got != nil {
		if got.VirtualOverheadSeconds != 0 {
			violations = append(violations, fmt.Sprintf(
				"tracer: virtual_overhead_seconds = %g, want exactly 0 (flow recording must not advance virtual clocks)",
				got.VirtualOverheadSeconds))
		}
		if got.AllocOverheadFrac >= maxAllocOverheadFrac {
			violations = append(violations, fmt.Sprintf(
				"tracer: alloc_overhead_frac = %.4f, budget %.2f",
				got.AllocOverheadFrac, maxAllocOverheadFrac))
		}
	}
	if base == nil {
		return violations
	}
	if got == nil {
		return append(violations, "tracer: overhead probe missing from fresh sweep")
	}
	exact := []struct {
		name      string
		base, got int64
	}{
		{"procs", int64(base.Procs), int64(got.Procs)},
		{"flows_started", base.FlowsStarted, got.FlowsStarted},
		{"flows_recorded", int64(base.FlowsRecorded), int64(got.FlowsRecorded)},
		{"flow_bytes", base.FlowBytes, got.FlowBytes},
	}
	for _, e := range exact {
		if e.base != e.got {
			violations = append(violations, fmt.Sprintf(
				"tracer: %s drifted %d -> %d (deterministic quantity, exact match required)",
				e.name, e.base, e.got))
		}
	}
	if got.TracedSeconds > base.TracedSeconds*(1+tol) {
		violations = append(violations, fmt.Sprintf(
			"tracer: traced_seconds regressed %.4f -> %.4f (+%.1f%%, tolerance %.0f%%)",
			base.TracedSeconds, got.TracedSeconds,
			100*(got.TracedSeconds/base.TracedSeconds-1), 100*tol))
	}
	return violations
}

// compareFaultDrill gates the snapshot's recovery drill. Counters are
// deterministic fingerprints of the recovery machinery (which path won,
// how many files were reclaimed) and must match exactly; the modeled
// seconds carry the same regression tolerance as stage times. Baselines
// that predate the drill are skipped — the gate tightens the first time
// a baseline carrying one is committed.
func compareFaultDrill(base, got *FaultDrill, tol float64) []string {
	if base == nil {
		return nil
	}
	if got == nil {
		return []string{"drill: fault drill missing from fresh sweep"}
	}
	var violations []string
	exact := []struct {
		name      string
		base, got int64
	}{
		{"procs", int64(base.Procs), int64(got.Procs)},
		{"migrations", int64(base.Migrations), int64(got.Migrations)},
		{"timeouts", int64(base.Timeouts), int64(got.Timeouts)},
		{"checkpoints_gced", int64(base.CheckpointsGCed), int64(got.CheckpointsGCed)},
		{"checkpoint_gc_bytes", base.CheckpointGCBytes, got.CheckpointGCBytes},
		{"checkpoint_restores", int64(base.CheckpointRestores), int64(got.CheckpointRestores)},
		{"recomputes", int64(base.Recomputes), int64(got.Recomputes)},
	}
	for _, e := range exact {
		if e.base != e.got {
			violations = append(violations, fmt.Sprintf(
				"drill: %s drifted %d -> %d (deterministic quantity, exact match required)",
				e.name, e.base, e.got))
		}
	}
	if fmt.Sprint(base.MigratedBlocks) != fmt.Sprint(got.MigratedBlocks) {
		violations = append(violations, fmt.Sprintf(
			"drill: migrated_blocks drifted %v -> %v (deterministic quantity, exact match required)",
			base.MigratedBlocks, got.MigratedBlocks))
	}
	if base.Nodes != got.Nodes {
		violations = append(violations, fmt.Sprintf(
			"drill: nodes drifted %v -> %v (deterministic quantity, exact match required)",
			base.Nodes, got.Nodes))
	}
	seconds := []struct {
		name      string
		base, got float64
	}{
		{"timeout_wait_seconds", base.TimeoutWaitSeconds, got.TimeoutWaitSeconds},
		{"merge_seconds", base.MergeSeconds, got.MergeSeconds},
	}
	for _, s := range seconds {
		if s.got > s.base*(1+tol) {
			violations = append(violations, fmt.Sprintf(
				"drill: %s regressed %.4f -> %.4f (+%.1f%%, tolerance %.0f%%)",
				s.name, s.base, s.got, 100*(s.got/s.base-1), 100*tol))
		}
	}
	return violations
}
