package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteJSON writes the report as indented JSON with a trailing newline.
// Output is byte-for-byte deterministic: struct field order is fixed
// and encoding/json sorts the Faults map keys.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Print renders the report for humans: stage table, per-round merge
// attribution, flagged stragglers, the critical path, and the tuning
// recommendation.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "run: %d ranks, %d blocks, radices %v, makespan %.4fs\n",
		r.Procs, r.Blocks, r.Radices, r.TotalSeconds)
	if r.BytesSent > 0 {
		fmt.Fprintf(w, "traffic: %d bytes sent\n", r.BytesSent)
	}

	if len(r.Stages) > 0 {
		fmt.Fprintf(w, "\n%-10s %10s %10s %10s %9s %8s\n",
			"stage", "mean", "p95", "max", "imbalance", "slowest")
		for _, st := range r.Stages {
			fmt.Fprintf(w, "%-10s %9.4fs %9.4fs %9.4fs %9.2f %8d\n",
				st.Name, st.MeanSeconds, st.P95Seconds, st.MaxSeconds, st.Imbalance, st.SlowestRank)
		}
	}

	if len(r.Rounds) > 0 {
		fmt.Fprintf(w, "\n%-6s %6s %7s %10s %10s %10s %10s %10s %12s %12s\n",
			"round", "radix", "blocks", "serialize", "glue", "simplify", "wait", "recover", "sent_bytes", "mean_payload")
		for _, rd := range r.Rounds {
			fmt.Fprintf(w, "%-6d %6d %7d %9.4fs %9.4fs %9.4fs %9.4fs %9.4fs %12d %12d\n",
				rd.Round, rd.Radix, rd.BlocksAfter, rd.SerializeSeconds, rd.GlueSeconds,
				rd.SimplifySeconds, rd.WaitSeconds, rd.RecoverSeconds, rd.SentBytes, rd.MeanPayloadBytes)
		}
	}

	if len(r.Stragglers) > 0 {
		fmt.Fprintf(w, "\nstragglers:\n")
		for _, s := range r.Stragglers {
			fmt.Fprintf(w, "  rank %-4d %-11s %.4fs (median %.4fs)\n",
				s.Rank, s.Stage, s.Seconds, s.MedianSeconds)
		}
	} else {
		fmt.Fprintf(w, "\nstragglers: none\n")
	}

	if len(r.Faults) > 0 {
		fmt.Fprintf(w, "\nfaults:\n")
		for _, name := range sortedStringKeys(r.Faults) {
			fmt.Fprintf(w, "  %-20s %d\n", name, r.Faults[name])
		}
	}

	if len(r.CommMatrix) > 0 {
		const topLinks = 16
		links := make([]CommLink, len(r.CommMatrix))
		copy(links, r.CommMatrix)
		sort.SliceStable(links, func(i, j int) bool {
			if links[i].Bytes != links[j].Bytes {
				return links[i].Bytes > links[j].Bytes
			}
			if links[i].Src != links[j].Src {
				return links[i].Src < links[j].Src
			}
			return links[i].Dst < links[j].Dst
		})
		shown := links
		if len(shown) > topLinks {
			shown = shown[:topLinks]
		}
		fmt.Fprintf(w, "\n%-12s %9s %12s %10s\n", "link", "msgs", "bytes", "recv_wait")
		for _, l := range shown {
			fmt.Fprintf(w, "%4d → %-5d %9d %12d %9.4fs\n",
				l.Src, l.Dst, l.Messages, l.Bytes, l.WaitSeconds)
		}
		if len(links) > topLinks {
			fmt.Fprintf(w, "  … %d more links (full matrix in JSON)\n", len(links)-topLinks)
		}
	}

	if len(r.CriticalPath) > 0 {
		fmt.Fprintf(w, "\ncritical path (ends %.4fs):\n", r.CriticalEndSeconds)
		for _, st := range r.CriticalPath {
			round := "-"
			if st.Round >= 0 {
				round = fmt.Sprintf("%d", st.Round)
			}
			fmt.Fprintf(w, "  %-10s rank %-4d block %-5d round %-3s %9.4fs → %9.4fs (%.4fs)\n",
				st.Kind, st.Rank, st.Block, round, st.StartSeconds, st.EndSeconds,
				st.EndSeconds-st.StartSeconds)
		}
	}

	fmt.Fprintf(w, "\nrecommendation: radices %v, blocks %d",
		r.Recommendation.Radices, r.Recommendation.Blocks)
	if len(r.Recommendation.AvoidRanks) > 0 {
		fmt.Fprintf(w, ", avoid ranks %v", r.Recommendation.AvoidRanks)
	}
	fmt.Fprintln(w)
	for _, reason := range r.Recommendation.Reasons {
		fmt.Fprintf(w, "  - %s\n", reason)
	}
}

func sortedStringKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
