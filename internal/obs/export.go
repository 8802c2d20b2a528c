package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"parms/internal/vtime"
)

// WriteChromeTrace emits the tracer's contents in the Chrome
// trace-event JSON format (the "JSON Array Format" with a traceEvents
// wrapper), loadable directly in Perfetto and chrome://tracing. Each
// rank becomes one track (pid 0, tid = rank) of complete ("X") span
// events and thread-scoped instant ("i") events; timestamps are virtual
// microseconds. Output is byte-for-byte deterministic for a given
// tracer state: tracks ascend by rank, events within a track ascend by
// timestamp (longer spans first on ties, so nested spans follow their
// parents), and attributes keep their recorded order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",")
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(line)
	}
	emit(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"parms virtual cluster"}}`)
	for id := 0; id < t.Procs(); id++ {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"rank %d"}}`, id, id))
	}
	for id := 0; id < t.Procs(); id++ {
		for _, ev := range mergeTrack(t.Spans(id), t.Instants(id)) {
			emit(ev.json(id))
		}
	}
	// Flow events last, ascending by (emitter, seq): one "s" on the
	// source track at injection time and one binding "f" on the
	// destination track at consumption time, so Perfetto draws an arrow
	// per message. Only completed flows export — an orphan (dropped
	// duplicate, payload that arrived after its receive timed out) has
	// no consumption point to bind to, and tracecheck treats an
	// unpaired "s" as a defect.
	for _, f := range t.Flows().Flows() {
		if !f.Done {
			continue
		}
		emit(f.startJSON())
		emit(f.finishJSON())
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// flowEventID is the Chrome-trace flow id: emitter in the high bits,
// sequence in the low, rendered as a decimal string so consumers never
// round it through a float.
func flowEventID(f Flow) string {
	return strconv.FormatInt(int64(f.Emitter)<<32|(f.Seq&0xffffffff), 10)
}

// startJSON renders the ph:"s" half of a flow pair. The args carry the
// full flow record (arrive/recv_start in the same fixed-point
// microseconds as ts), so ParseChromeTrace round-trips flows without a
// side channel.
func (f Flow) startJSON() string {
	var b strings.Builder
	b.WriteString(`{"name":`)
	b.WriteString(strconv.Quote("flow:" + f.Kind))
	fmt.Fprintf(&b, `,"cat":"flow","ph":"s","id":"%s","pid":0,"tid":%d,"ts":%s`,
		flowEventID(f), f.Src, micros(f.SendVT))
	fmt.Fprintf(&b, `,"args":{"seq":%d,"emitter":%d,"src":%d,"dst":%d,"tag":%d,"bytes":%d,"kind":%s,"arrive":%s,"recv_start":%s}}`,
		f.Seq, f.Emitter, f.Src, f.Dst, f.Tag, f.Bytes,
		strconv.Quote(f.Kind), micros(f.ArriveVT), micros(f.RecvStartVT))
	return b.String()
}

// finishJSON renders the ph:"f" half; bp:"e" binds the arrow to the
// enclosing slice on the destination track.
func (f Flow) finishJSON() string {
	var b strings.Builder
	b.WriteString(`{"name":`)
	b.WriteString(strconv.Quote("flow:" + f.Kind))
	fmt.Fprintf(&b, `,"cat":"flow","ph":"f","bp":"e","id":"%s","pid":0,"tid":%d,"ts":%s}`,
		flowEventID(f), f.Dst, micros(f.RecvVT))
	return b.String()
}

// trackEvent is one span or instant flattened for export.
type trackEvent struct {
	name  string
	ts    vtime.Time
	dur   vtime.Time // spans only
	span  bool
	attrs []Attr
}

func (e trackEvent) json(tid int) string {
	var b strings.Builder
	b.WriteString(`{"name":`)
	b.WriteString(strconv.Quote(e.name))
	if e.span {
		fmt.Fprintf(&b, `,"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s`,
			tid, micros(e.ts), micros(e.dur))
	} else {
		fmt.Fprintf(&b, `,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%s`, tid, micros(e.ts))
	}
	if len(e.attrs) > 0 {
		b.WriteString(`,"args":{`)
		for i, a := range e.attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(a.Key))
			b.WriteByte(':')
			switch a.kind {
			case 'i':
				b.WriteString(strconv.FormatInt(a.i, 10))
			case 'f':
				b.WriteString(strconv.FormatFloat(a.f, 'g', -1, 64))
			default:
				b.WriteString(strconv.Quote(a.s))
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

// micros renders a virtual time as fixed-point microseconds with
// nanosecond resolution — fixed-point so event ordering survives the
// format and re-parsing never sees exponents.
func micros(t vtime.Time) string {
	return strconv.FormatFloat(float64(t)*1e6, 'f', 3, 64)
}

// mergeTrack interleaves one rank's spans and instants into a single
// timestamp-sorted event stream. Sorting is stable; span ties order by
// descending duration so enclosing spans precede the spans they contain.
func mergeTrack(spans []Span, instants []Instant) []trackEvent {
	evs := make([]trackEvent, 0, len(spans)+len(instants))
	for _, s := range spans {
		evs = append(evs, trackEvent{name: s.Name, ts: s.Start, dur: s.End - s.Start, span: true, attrs: s.Attrs})
	}
	for _, i := range instants {
		evs = append(evs, trackEvent{name: i.Name, ts: i.Ts, attrs: i.Attrs})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].ts != evs[b].ts {
			return evs[a].ts < evs[b].ts
		}
		return evs[a].dur > evs[b].dur
	})
	return evs
}

// StageStat summarizes the per-rank durations of one span name: the
// paper's stage decomposition plus the distribution a single max hides.
// Imbalance is max/mean, the efficiency metric of section IV-A (1.0 =
// perfectly balanced).
type StageStat struct {
	Name      string
	Count     int
	Mean      float64
	P50       float64
	P95       float64
	Max       float64
	Total     float64
	MaxEnd    float64 // latest span end across ranks, = the stage boundary
	Imbalance float64
}

// StageStats aggregates span durations by name across all ranks. With
// explicit names, stats come back in that order (missing names have
// Count 0); with none, every recorded span name is reported, ordered by
// earliest span start.
func (t *Tracer) StageStats(names ...string) []StageStat {
	type agg struct {
		durs   []float64
		maxEnd float64
		first  vtime.Time
	}
	byName := make(map[string]*agg)
	order := []string{}
	for id := 0; id < t.Procs(); id++ {
		for _, s := range t.Spans(id) {
			a, ok := byName[s.Name]
			if !ok {
				a = &agg{first: s.Start}
				byName[s.Name] = a
				order = append(order, s.Name)
			}
			if s.Start < a.first {
				a.first = s.Start
			}
			a.durs = append(a.durs, s.Duration())
			if end := float64(s.End); end > a.maxEnd {
				a.maxEnd = end
			}
		}
	}
	if len(names) == 0 {
		sort.SliceStable(order, func(i, j int) bool {
			return byName[order[i]].first < byName[order[j]].first
		})
		names = order
	}
	stats := make([]StageStat, 0, len(names))
	for _, name := range names {
		st := StageStat{Name: name}
		if a, ok := byName[name]; ok {
			sort.Float64s(a.durs)
			st.Count = len(a.durs)
			st.MaxEnd = a.maxEnd
			for _, d := range a.durs {
				st.Total += d
			}
			st.Mean = st.Total / float64(st.Count)
			st.P50 = quantile(a.durs, 0.50)
			st.P95 = quantile(a.durs, 0.95)
			st.Max = a.durs[len(a.durs)-1]
			if st.Mean > 0 {
				st.Imbalance = st.Max / st.Mean
			}
		}
		stats = append(stats, st)
	}
	return stats
}

// quantile returns the q-quantile of sorted xs (nearest-rank method).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// WriteStageStats renders stats as the per-stage summary table the CLIs
// print: durations across ranks with p50/p95/max and the imbalance
// ratio.
func WriteStageStats(w io.Writer, stats []StageStat) {
	fmt.Fprintf(w, "%-14s %6s %10s %10s %10s %10s %9s\n",
		"stage", "spans", "p50", "p95", "max", "mean", "imbalance")
	for _, st := range stats {
		if st.Count == 0 {
			fmt.Fprintf(w, "%-14s %6d %10s %10s %10s %10s %9s\n",
				st.Name, 0, "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-14s %6d %9.4fs %9.4fs %9.4fs %9.4fs %9.2f\n",
			st.Name, st.Count, st.P50, st.P95, st.Max, st.Mean, st.Imbalance)
	}
}
