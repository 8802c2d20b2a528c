// Command msinsight analyzes a run's exported observability artifacts:
// the Chrome-trace JSON written by msc -trace (or scraped from a live
// run's /trace endpoint) and, optionally, the Prometheus metrics dump
// from msc -metrics, read for the run's byte count. It reports the
// message-level critical path, per-stage straggler flags with
// imbalance scores, the ranks whose messages others waited on,
// per-round merge attribution (serialize / glue / simplify / wait
// time, payload growth), fault counts, and a deterministic tuning
// recommendation (merge radix schedule, block count, ranks to remap
// around).
//
// Usage:
//
//	msinsight -trace trace.json [-metrics metrics.prom] [-json]
//	msinsight -trace trace.json -flows [-buckets 64]
//
// Block count and merge radices are read from the trace. Output is a
// human-readable report by default; -json switches to the
// machine-readable form, which is byte-identical across runs of the
// same trace. -flows switches to the message-flow
// view instead: the full rank×rank communication matrix rebuilt from
// the trace's flow events, and the bucketed virtual-time timeline
// (-buckets sets its resolution).
package main

import (
	"flag"
	"fmt"
	"os"

	"parms/internal/obs"
	"parms/internal/obs/analyze"
)

func main() {
	traceIn := flag.String("trace", "", "Chrome-trace JSON file of the run (required; from msc -trace or /trace)")
	metricsIn := flag.String("metrics", "", "Prometheus metrics dump of the run (optional; from msc -metrics or /metrics)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable JSON report instead of the text rendering")
	flowsMode := flag.Bool("flows", false, "print the message-flow view (comm matrix + virtual-time timeline) instead of the report")
	buckets := flag.Int("buckets", 0, "timeline bucket count for -flows (0 = default 64)")
	flag.Parse()

	if *traceIn == "" {
		fmt.Fprintln(os.Stderr, "msinsight: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*traceIn)
	if err != nil {
		fatalf("%v", err)
	}
	in, err := analyze.ParseChromeTrace(f)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}
	if *metricsIn != "" {
		mf, err := os.Open(*metricsIn)
		if err != nil {
			fatalf("%v", err)
		}
		metrics, err := analyze.ParsePrometheus(mf)
		mf.Close()
		if err != nil {
			fatalf("%v", err)
		}
		in.BytesSent = int64(metrics["mpsim_bytes_sent_total"])
	}

	rep := analyze.Analyze(in)
	if *flowsMode {
		printFlows(in, rep, *buckets)
		return
	}
	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	rep.Print(os.Stdout)
}

// printFlows renders the flow-level view of a parsed trace: the full
// comm matrix (every directed link, not just the report's top slice)
// and the bucketed timeline, both rebuilt from the trace's flow events.
func printFlows(in *analyze.Input, rep *analyze.Report, buckets int) {
	if len(in.Flows) == 0 {
		fmt.Println("no flow events in trace")
		return
	}
	done := 0
	for _, f := range in.Flows {
		if f.Done {
			done++
		}
	}
	fmt.Printf("flows: %d recorded, %d consumed\n", len(in.Flows), done)
	if len(rep.CommMatrix) > 0 {
		fmt.Printf("\n%-12s %9s %12s %10s\n", "link", "msgs", "bytes", "recv_wait")
		for _, l := range rep.CommMatrix {
			fmt.Printf("%4d → %-5d %9d %12d %9.4fs\n", l.Src, l.Dst, l.Messages, l.Bytes, l.WaitSeconds)
		}
	}
	tl := obs.BuildTimeline(in.Spans, in.Flows, buckets)
	if len(tl) == 0 {
		return
	}
	fmt.Printf("\n%-22s %6s %12s %6s %12s %12s %7s %10s\n",
		"bucket", "sent", "sent_bytes", "recv", "recv_bytes", "in_flight", "active", "wait")
	for _, b := range tl {
		fmt.Printf("[%8.4fs, %8.4fs) %6d %12d %6d %12d %12d %7d %9.4fs\n",
			b.Start, b.End, b.MsgsSent, b.BytesSent, b.MsgsRecv, b.BytesRecv,
			b.BytesInFlight, b.ActiveSpans, b.WaitSeconds)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "msinsight: "+format+"\n", args...)
	os.Exit(1)
}
