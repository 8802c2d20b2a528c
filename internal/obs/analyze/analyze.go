// Package analyze is the layer that reads the telemetry: it consumes a
// traced run (its *obs.Tracer or a re-parsed Chrome-trace export)
// and computes the analyses the paper's per-stage max-over-ranks
// decomposition cannot express — the critical path through the run's
// message chain, per-stage straggler detection with an imbalance
// score, per-round merge attribution (serialize vs glue vs simplify
// vs receive wait, payload growth), and a deterministic tuning
// recommendation derived from the observed payload sizes and span
// times (DESIGN §12). The critical path, the wait stragglers and the
// per-round wait all come from the flow records (DESIGN §14).
//
// Every function here is a pure function of its Input: analyzing the
// same trace twice — or the traces of two same-seed runs — produces
// byte-identical reports.
package analyze

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"parms/internal/obs"
)

// Input is the telemetry snapshot an analysis consumes: one span/
// instant track per rank and the flow records. Build one with
// FromTracer (from a finished run) or ParseChromeTrace (from an
// exported trace).
type Input struct {
	Procs    int
	Spans    [][]obs.Span
	Instants [][]obs.Instant
	// Flows holds the per-message causal records, ordered by
	// (emitter, seq). Without them the report has no critical path, no
	// comm matrix and no wait attribution.
	Flows []obs.Flow
}

// FromTracer snapshots a run's tracer. Each track is copied under
// its lock, so the snapshot is a consistent prefix of the run even
// while ranks are still recording.
func FromTracer(tr *obs.Tracer) *Input {
	in := &Input{}
	if tr == nil {
		return in
	}
	in.Procs = tr.Procs()
	in.Spans = make([][]obs.Span, in.Procs)
	in.Instants = make([][]obs.Instant, in.Procs)
	for id := 0; id < in.Procs; id++ {
		in.Spans[id] = tr.Spans(id)
		in.Instants[id] = tr.Instants(id)
	}
	in.Flows = tr.Flows().Flows()
	return in
}

// madK is the straggler threshold multiplier on the median absolute
// deviation: a rank is flagged when its stage duration (or imposed
// wait) exceeds median + madK·MAD plus a small floor that suppresses
// noise when MAD is ~0.
const madK = 4

// StageSummary condenses one stage's per-rank durations.
type StageSummary struct {
	Name        string  `json:"name"`
	MaxSeconds  float64 `json:"max_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	// Imbalance is max/mean across ranks (1.0 = perfectly balanced),
	// the paper's efficiency metric.
	Imbalance   float64 `json:"imbalance"`
	SlowestRank int     `json:"slowest_rank"`
}

// Straggler is one flagged rank.
type Straggler struct {
	Rank int `json:"rank"`
	// Stage is the stage the rank straggled in, or "comm-wait" when
	// the rank was flagged for the receive wait its messages imposed
	// on their receivers (the signature of a slow sender, whose own
	// spans stay short).
	Stage string `json:"stage"`
	// Seconds is the rank's duration (or total imposed wait) and
	// MedianSeconds the across-rank median it is compared against.
	MedianSeconds float64 `json:"median_seconds"`
	Seconds       float64 `json:"seconds"`
}

// RoundReport attributes one merge round's time and traffic.
type RoundReport struct {
	Round       int `json:"round"`
	Radix       int `json:"radix"`
	BlocksAfter int `json:"blocks_after"`
	// Seconds is the round duration (max over ranks).
	Seconds float64 `json:"seconds"`
	// The per-phase sums across ranks inside the round window.
	SerializeSeconds float64 `json:"serialize_seconds"`
	GlueSeconds      float64 `json:"glue_seconds"`
	SimplifySeconds  float64 `json:"simplify_seconds"`
	// WaitSeconds is the receive wait of the round's point-to-point
	// messages (flow wait of each p2p receive inside the receiver's
	// round window) plus the time roots sat out on receive timeouts,
	// summed across ranks.
	WaitSeconds float64 `json:"wait_seconds"`
	// RecoverSeconds sums rebuild and checkpoint-restore spans.
	RecoverSeconds float64 `json:"recover_seconds"`
	SentBytes      int64   `json:"sent_bytes"`
	// Payload sizes observed by the round's serialize spans.
	MeanPayloadBytes int64 `json:"mean_payload_bytes"`
	MaxPayloadBytes  int64 `json:"max_payload_bytes"`
}

// PathStep is one link of the critical path, on one rank's timeline.
type PathStep struct {
	// Kind is read, compute, serialize, glue, simplify, checkpoint,
	// recover, wait (a receiver blocked on the hop's message) or msg
	// (the hop's transfer).
	Kind  string `json:"kind"`
	Rank  int    `json:"rank"`
	Block int    `json:"block"`
	// Round is the merge round, -1 before merging.
	Round        int     `json:"round"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	// Src and Dst are set on msg steps: the hop's endpoints.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
}

// Recommendation is the deterministic tuning advice derived from the
// trace (see Recommend).
type Recommendation struct {
	// Radices is the proposed merge radix schedule.
	Radices []int `json:"radices,omitempty"`
	// Blocks is the proposed decomposition block count (equal to the
	// observed count when no change is advised).
	Blocks int `json:"blocks"`
	// AvoidRanks lists straggler ranks the block-cyclic remapping
	// should shift load away from.
	AvoidRanks []int    `json:"avoid_ranks,omitempty"`
	Reasons    []string `json:"reasons"`
}

// Report is the full analysis of one run.
type Report struct {
	Procs        int     `json:"procs"`
	Blocks       int     `json:"blocks"`
	Radices      []int   `json:"radices,omitempty"`
	TotalSeconds float64 `json:"total_seconds"`
	// BytesSent sums the payload bytes of the run's message flows,
	// collective-tag traffic included (obs.FlowBytes). It counts
	// deliveries: a dropped message is not counted, and a duplicated
	// one counts twice. An exported trace keeps only the consumed
	// flows, so there a duplicate counts once.
	BytesSent int64 `json:"bytes_sent,omitempty"`

	Stages     []StageSummary `json:"stages,omitempty"`
	Stragglers []Straggler    `json:"stragglers,omitempty"`
	Rounds     []RoundReport  `json:"rounds,omitempty"`

	// CriticalPath is the message chain that bound the makespan, walked
	// back from the last unit of work over the receives that stalled
	// (see criticalPath); CriticalEndSeconds is when it completes. Both
	// are empty without flow records.
	CriticalPath       []PathStep `json:"critical_path,omitempty"`
	CriticalEndSeconds float64    `json:"critical_end_seconds"`

	// CommMatrix is the rank×rank traffic aggregation from the flow
	// records, ordered by (src, dst).
	CommMatrix []CommLink `json:"comm_matrix,omitempty"`

	// Faults counts fault instants by name (fault:timeout etc.).
	Faults map[string]int `json:"faults,omitempty"`

	Recommendation Recommendation `json:"recommendation"`
}

// stageNames are the stage spans summarized per rank, in timeline
// order (the sync spans are collective boundaries, not work).
var stageNames = []string{"read", "compute", "merge", "write"}

// Analyze computes the full report. It is a pure function of in: equal
// inputs produce equal reports, byte for byte once serialized.
func Analyze(in *Input) *Report {
	a := newAnalysis(in)
	rep := &Report{
		Procs:        a.procs,
		Blocks:       a.nblocks,
		TotalSeconds: a.total,
		Rounds:       a.rounds,
	}
	rep.BytesSent, _ = obs.FlowBytes(in.Flows)
	for _, r := range a.rounds {
		rep.Radices = append(rep.Radices, r.Radix)
	}
	rep.Stages = a.stageSummaries()
	rep.CommMatrix = a.commMatrix()
	rep.Stragglers = append(a.stragglers(rep.Stages), a.commStragglers()...)
	rep.CriticalPath, rep.CriticalEndSeconds = a.criticalPath()
	rep.Faults = a.faultCounts()
	rep.Recommendation = recommend(rep)
	return rep
}

// analysis is the indexed view of one Input that the individual
// analyses query.
type analysis struct {
	in      *Input
	procs   int
	nblocks int
	total   float64
	// windows[rank] lists the round:k span intervals on that rank.
	windows [][]window
	// rounds[k] is round k's report; its length is the round count.
	rounds []RoundReport
	// timeouts are the run's fault:timeout instants.
	timeouts []timeout
}

type window struct {
	round      int
	start, end float64
}

// timeout is one receive a merge root gave up on: the round, the rank
// whose payload never came, and the virtual seconds the root waited.
type timeout struct {
	round, src int
	wait       float64
}

func attrInt(attrs []obs.Attr, key string) (int64, bool) {
	for _, at := range attrs {
		if at.Key == key {
			return at.Int(), true
		}
	}
	return 0, false
}

// attrFloat reads a numeric attribute. A float that happens to be
// integral comes back from a parsed trace as an I attr, so both kinds
// are read.
func attrFloat(attrs []obs.Attr, key string) float64 {
	for _, at := range attrs {
		if at.Key == key {
			return at.Float() + float64(at.Int())
		}
	}
	return 0
}

// roundIndex parses a round:k span name.
func roundIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "round:")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	return k, err == nil && k >= 0
}

func newAnalysis(in *Input) *analysis {
	a := &analysis{in: in, procs: in.Procs, windows: make([][]window, in.Procs)}

	// Pass 1: makespan, block ids, round windows.
	maxBlock, nwindows := -1, 0
	for rank := 0; rank < a.procs; rank++ {
		for _, s := range in.Spans[rank] {
			a.total = math.Max(a.total, float64(s.End))
			if b := blockOf(s); b > maxBlock {
				maxBlock = b
			}
			if k, ok := roundIndex(s.Name); ok {
				a.windows[rank] = append(a.windows[rank], window{k, float64(s.Start), float64(s.End)})
				nwindows++
			}
		}
	}
	a.nblocks = maxBlock + 1
	if a.nblocks <= 0 {
		a.nblocks = a.procs
	}
	// Every round of a real run leaves at least one round:k span, so a
	// round index at or past the number of round spans is malformed and
	// is not allowed to size the report.
	nrounds := 0
	for _, ws := range a.windows {
		for _, w := range ws {
			if w.round < nwindows && w.round >= nrounds {
				nrounds = w.round + 1
			}
		}
	}
	a.rounds = make([]RoundReport, nrounds)
	npayloads := make([]int64, nrounds)
	for k := range a.rounds {
		a.rounds[k].Round = k
	}

	// Pass 2: round attributes, then the merge sub-spans, assigned to
	// rounds by containment in the recording rank's round window.
	for rank := 0; rank < a.procs; rank++ {
		for _, s := range in.Spans[rank] {
			if k, ok := roundIndex(s.Name); ok {
				if k < nrounds {
					r := &a.rounds[k]
					if v, ok := attrInt(s.Attrs, "radix"); ok {
						r.Radix = int(v)
					}
					if v, ok := attrInt(s.Attrs, "blocks_after"); ok {
						r.BlocksAfter = int(v)
					}
					v, _ := attrInt(s.Attrs, "sent_bytes")
					r.SentBytes += v
					r.Seconds = math.Max(r.Seconds, s.Duration())
				}
				continue
			}
			k := a.roundOf(rank, float64(s.Start), float64(s.End))
			if k < 0 {
				continue
			}
			r := &a.rounds[k]
			switch s.Name {
			case "serialize":
				r.SerializeSeconds += s.Duration()
				if v, ok := attrInt(s.Attrs, "bytes"); ok {
					r.MeanPayloadBytes += v // the sum until divided below
					r.MaxPayloadBytes = max(r.MaxPayloadBytes, v)
					npayloads[k]++
				}
			case "glue":
				r.GlueSeconds += s.Duration()
			case "simplify":
				r.SimplifySeconds += s.Duration()
			case "rebuild", "ckpt:restore":
				r.RecoverSeconds += s.Duration()
			}
		}
	}
	for k, n := range npayloads {
		if n > 0 {
			a.rounds[k].MeanPayloadBytes /= n
		}
	}

	// Round waits: each p2p receive's flow wait, in the receiver's round
	// window, and each timeout's wait in its round.
	for _, f := range in.Flows {
		if f.Done && f.Kind == obs.FlowP2P && f.Dst >= 0 && f.Dst < a.procs {
			if k := a.roundOf(f.Dst, float64(f.RecvStartVT), float64(f.RecvVT)); k >= 0 {
				a.rounds[k].WaitSeconds += f.WaitSeconds()
			}
		}
	}
	for rank := 0; rank < a.procs; rank++ {
		for _, inst := range in.Instants[rank] {
			if inst.Name != "fault:timeout" {
				continue
			}
			k, _ := attrInt(inst.Attrs, "round")
			src, ok := attrInt(inst.Attrs, "src")
			t := timeout{round: int(k), src: int(src), wait: attrFloat(inst.Attrs, "wait_s")}
			if !ok || t.src < 0 || t.src >= a.procs || t.wait <= 0 {
				continue
			}
			a.timeouts = append(a.timeouts, t)
			if t.round >= 0 && t.round < nrounds {
				a.rounds[t.round].WaitSeconds += t.wait
			}
		}
	}
	return a
}

// roundOf returns the merge round whose window on the rank contains
// [start, end], or -1.
func (a *analysis) roundOf(rank int, start, end float64) int {
	for _, w := range a.windows[rank] {
		if w.round < len(a.rounds) && w.end > w.start && start >= w.start && end <= w.end {
			return w.round
		}
	}
	return -1
}

// stageDurations returns each rank's total duration of the named spans.
func (a *analysis) stageDurations(name string) []float64 {
	durs := make([]float64, a.procs)
	for rank := 0; rank < a.procs; rank++ {
		for _, s := range a.in.Spans[rank] {
			if s.Name == name {
				durs[rank] += s.Duration()
			}
		}
	}
	return durs
}

func (a *analysis) stageSummaries() []StageSummary {
	var out []StageSummary
	for _, name := range stageNames {
		durs := a.stageDurations(name)
		sum, max, slowest := 0.0, 0.0, 0
		for rank, d := range durs {
			sum += d
			if d > max {
				max, slowest = d, rank
			}
		}
		if sum == 0 {
			continue
		}
		mean := sum / float64(len(durs))
		st := StageSummary{
			Name:        name,
			MaxSeconds:  max,
			MeanSeconds: mean,
			P95Seconds:  quantile(durs, 0.95),
			SlowestRank: slowest,
		}
		if mean > 0 {
			st.Imbalance = max / mean
		}
		out = append(out, st)
	}
	return out
}

// quantile is the nearest-rank quantile of a copy of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// medianMAD returns the median and median absolute deviation of xs.
func medianMAD(xs []float64) (med, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	med = quantile(xs, 0.5)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return med, quantile(devs, 0.5)
}

// stragglers flags the ranks whose stage duration is an outlier (DESIGN
// §12). A slow sender's own spans stay short; commStragglers catches
// it by the wait it imposed.
func (a *analysis) stragglers(stages []StageSummary) []Straggler {
	var out []Straggler
	for _, st := range stages {
		durs := a.stageDurations(st.Name)
		med, mad := medianMAD(durs)
		// The relative floor suppresses flags when MAD ~ 0 (the virtual
		// model makes same-work ranks near-identical).
		thresh := med + madK*mad + 0.05*med + 1e-9
		for rank, d := range durs {
			if d > thresh {
				out = append(out, Straggler{Rank: rank, Stage: st.Name, Seconds: d, MedianSeconds: med})
			}
		}
	}
	return out
}

func sortedKeys2[V any](m map[[2]int]V) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

func (a *analysis) faultCounts() map[string]int {
	counts := map[string]int{}
	for rank := 0; rank < a.procs; rank++ {
		for _, inst := range a.in.Instants[rank] {
			if strings.HasPrefix(inst.Name, "fault:") {
				counts[inst.Name]++
			}
		}
	}
	if len(counts) == 0 {
		return nil
	}
	return counts
}
