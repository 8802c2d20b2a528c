package analyze

import (
	"sort"
	"strings"

	"parms/internal/obs"
)

// Flow-level analyses (DESIGN §14): the per-message causal records
// give the analyses an exact view of who waited on whom. The comm
// matrix aggregates traffic and imposed receive wait per directed rank
// pair, commStragglers charges that wait to the sender, and
// criticalPath walks the actual message chain that bound the makespan.

// CommLink is one directed rank pair's aggregate traffic: how many
// messages and bytes flowed src→dst, and how long dst sat blocked
// waiting for them (virtual seconds).
type CommLink struct {
	Src      int   `json:"src"`
	Dst      int   `json:"dst"`
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	// WaitSeconds is the receive wait this link imposed: time dst spent
	// blocked between starting a receive and the payload's arrival.
	WaitSeconds float64 `json:"wait_seconds"`
}

// commMatrix aggregates the completed flows into the rank×rank
// communication matrix, links ordered by (src, dst). Orphan flows
// (never consumed) are excluded: they imposed no wait and delivered no
// bytes.
func (a *analysis) commMatrix() []CommLink {
	if len(a.in.Flows) == 0 {
		return nil
	}
	agg := map[[2]int]*CommLink{}
	for _, f := range a.in.Flows {
		if !f.Done {
			continue
		}
		key := [2]int{f.Src, f.Dst}
		l := agg[key]
		if l == nil {
			l = &CommLink{Src: f.Src, Dst: f.Dst}
			agg[key] = l
		}
		l.Messages++
		l.Bytes += int64(f.Bytes)
		l.WaitSeconds += f.WaitSeconds()
	}
	out := make([]CommLink, 0, len(agg))
	for _, key := range sortedKeys2(agg) {
		out = append(out, *agg[key])
	}
	return out
}

// commStragglers flags ranks by the total receive wait their messages
// imposed across all links, plus the wait of every receive that timed
// out on them — a direct feed into Recommend's AvoidRanks.
// Collective-tag flows are excluded: a barrier's tree waits encode the
// max semantics of the collective, not a slow sender.
func (a *analysis) commStragglers() []Straggler {
	if a.procs == 0 {
		return nil
	}
	waits := make([]float64, a.procs)
	for _, f := range a.in.Flows {
		if !f.Done || f.Kind == obs.FlowCollective || f.Src < 0 || f.Src >= a.procs {
			continue
		}
		waits[f.Src] += f.WaitSeconds()
	}
	for _, t := range a.timeouts {
		waits[t.src] += t.wait
	}
	med, mad := medianMAD(waits)
	thresh := med + madK*mad + 0.02*a.total + 1e-9
	var out []Straggler
	for rank, w := range waits {
		if w > thresh {
			out = append(out, Straggler{Rank: rank, Stage: "comm-wait", Seconds: w, MedianSeconds: med})
		}
	}
	return out
}

// tilingSpan reports whether a span contributes no critical-path step
// of its own: stage/round containers, which tile the whole timeline
// and would shadow the leaves, and kernel:* sub-steps, which nest
// inside a block compute span and would double-count it (and overlap
// their parent, breaking the path's end-time monotonicity).
func tilingSpan(name string) bool {
	switch name {
	case "read", "compute", "merge", "write":
		return true
	}
	return strings.HasPrefix(name, "sync:") || strings.HasPrefix(name, "round:") ||
		strings.HasPrefix(name, "kernel:")
}

// stepKind maps a leaf span name onto the PathStep kind vocabulary.
func stepKind(name string) string {
	switch name {
	case "read:block":
		return "read"
	case "block":
		return "compute"
	case "ckpt:write":
		return "checkpoint"
	case "ckpt:restore", "rebuild":
		return "recover"
	}
	return name
}

// blockOf extracts the block id a span is about, -1 when it has none.
func blockOf(s obs.Span) int {
	for _, key := range []string{"block", "id", "root"} {
		if v, ok := attrInt(s.Attrs, key); ok {
			return int(v)
		}
	}
	return -1
}

// criticalPath walks the exact message-level critical path backward
// from the last unit of real work: at each rank it finds the latest
// inbound message the rank genuinely waited for (arrival after the
// receive began), emits the local work between that message and the
// current frontier, then hops to the sender at its injection time and
// repeats. Each hop contributes a wait step on the receiver and a msg
// step for the transfer, read off the records directly. Collective-tag
// flows are skipped: a barrier binds every rank by construction, and
// walking its tree would bury the data-dependency chain in
// synchronization ping-pong. The path ends at the latest leaf span end.
func (a *analysis) criticalPath() ([]PathStep, float64) {
	if a.procs == 0 || len(a.in.Flows) == 0 || a.total <= 0 {
		return nil, 0
	}
	// Inbound data-bearing flows per destination, by completion time.
	// Only flows the receiver stalled on can bind the timeline: an
	// already-buffered payload means the receiver, not the message, was
	// the constraint. (Synthetic flows have zero wait and drop out too.)
	inbound := make([][]obs.Flow, a.procs)
	for _, f := range a.in.Flows {
		if !f.Done || f.Kind == obs.FlowCollective || f.Dst < 0 || f.Dst >= a.procs {
			continue
		}
		if float64(f.ArriveVT-f.RecvStartVT) <= 1e-12 {
			continue
		}
		inbound[f.Dst] = append(inbound[f.Dst], f)
	}
	for d := range inbound {
		fl := inbound[d]
		sort.SliceStable(fl, func(i, j int) bool { return fl[i].RecvVT < fl[j].RecvVT })
	}
	// Anchor at the latest leaf span end — the last real work of the
	// run (the tiling sync/round spans end later, at the final
	// collective, identically on every rank).
	rank, t := -1, 0.0
	for rk := 0; rk < a.procs; rk++ {
		for _, s := range a.in.Spans[rk] {
			if tilingSpan(s.Name) {
				continue
			}
			if end := float64(s.End); end > t {
				rank, t = rk, end
			}
		}
	}
	if rank < 0 || t <= 0 {
		return nil, 0
	}
	end := t
	var rev []PathStep // backward order; reversed before returning
	for hops := 0; hops < 100000; hops++ {
		fl := inbound[rank]
		i := sort.Search(len(fl), func(i int) bool { return float64(fl[i].RecvVT) > t })
		if i == 0 {
			// No binding message before the frontier: the path starts
			// with local work from the beginning of the run.
			rev = append(rev, a.segmentSteps(rank, 0, t)...)
			break
		}
		f := fl[i-1]
		rev = append(rev, a.segmentSteps(rank, float64(f.RecvVT), t)...)
		rev = append(rev, PathStep{
			Kind: "msg", Rank: f.Src, Src: f.Src, Dst: f.Dst,
			Block: -1, Round: -1,
			StartSeconds: float64(f.SendVT), EndSeconds: float64(f.RecvVT),
		})
		rev = append(rev, PathStep{
			Kind: "wait", Rank: f.Dst, Block: -1, Round: -1,
			StartSeconds: float64(f.RecvStartVT), EndSeconds: float64(f.ArriveVT),
		})
		if f.Src < 0 || f.Src >= a.procs || float64(f.SendVT) >= t {
			break
		}
		rank, t = f.Src, float64(f.SendVT)
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, end
}

// segmentSteps returns the leaf work spans on rank that complete inside
// (lo, hi], in backward (latest-first) order to match the caller's
// walk.
func (a *analysis) segmentSteps(rank int, lo, hi float64) []PathStep {
	if rank < 0 || rank >= a.procs {
		return nil
	}
	var picked []obs.Span
	for _, s := range a.in.Spans[rank] {
		if tilingSpan(s.Name) {
			continue
		}
		if end := float64(s.End); end <= lo+1e-12 || end > hi+1e-12 {
			continue
		}
		picked = append(picked, s)
	}
	sort.SliceStable(picked, func(i, j int) bool {
		if picked[i].Start != picked[j].Start {
			return picked[i].Start > picked[j].Start
		}
		return picked[i].End > picked[j].End
	})
	steps := make([]PathStep, 0, len(picked))
	for _, s := range picked {
		steps = append(steps, PathStep{
			Kind: stepKind(s.Name), Rank: rank, Block: blockOf(s),
			Round:        a.roundOf(rank, float64(s.Start), float64(s.End)),
			StartSeconds: float64(s.Start), EndSeconds: float64(s.End),
		})
	}
	return steps
}
