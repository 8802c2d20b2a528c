// Package obs is the observability layer of the virtual cluster: a span
// tracer keyed to virtual time (package vtime) with a per-message flow
// recorder, and exporters for the Chrome trace-event format (loadable
// in Perfetto) and a per-stage summary table.
//
// The paper's entire evaluation is a stage-time decomposition — read,
// compute, merge, write, max over ranks — but a single max per stage
// cannot say *why* a stage is slow: which rank straggled, which merge
// round dominated, how payloads grew per round, or where fault recovery
// spent its recompute budget. The tracer records one track per rank
// whose spans tile the rank's virtual timeline exactly, so a Perfetto
// view of a run reads like a trace of the same program executed on the
// modeled machine. There is no separate metrics store: a run's counts
// are read off the trace itself — span and instant attributes, span
// durations and flow records.
//
// Everything is nil-safe by design: a nil *Tracer, *RankTracer or
// *FlowRecorder accepts every call as a no-op, so the fault-free fast
// path with observability disabled pays one nil check per hook and
// allocates nothing.
package obs

import (
	"sync"

	"parms/internal/vtime"
)

// Attr is one typed span or instant attribute. Attributes are an
// ordered list, not a map, so exports are byte-for-byte deterministic.
type Attr struct {
	Key  string
	kind byte // 'i', 'f' or 's'
	i    int64
	f    float64
	s    string
}

// I makes an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, kind: 'i', i: v} }

// F makes a float attribute.
func F(key string, v float64) Attr { return Attr{Key: key, kind: 'f', f: v} }

// S makes a string attribute.
func S(key, v string) Attr { return Attr{Key: key, kind: 's', s: v} }

// Int returns the integer value of an I attribute (0 otherwise).
func (a Attr) Int() int64 { return a.i }

// Float returns the float value of an F attribute (0 otherwise).
func (a Attr) Float() float64 { return a.f }

// Str returns the string value of an S attribute ("" otherwise).
func (a Attr) Str() string { return a.s }

// Span is one named interval on a rank's virtual timeline.
type Span struct {
	Name       string
	Start, End vtime.Time
	Attrs      []Attr
}

// Duration returns the span length in virtual seconds.
func (s Span) Duration() float64 { return float64(s.End - s.Start) }

// Attr returns the named attribute and whether it is present.
func (s Span) Attr(key string) (Attr, bool) { return findAttr(s.Attrs, key) }

// Instant is one point event on a rank's virtual timeline (a fault, a
// retry, a recovery decision).
type Instant struct {
	Name  string
	Ts    vtime.Time
	Attrs []Attr
}

// Attr returns the named attribute and whether it is present.
func (i Instant) Attr(key string) (Attr, bool) { return findAttr(i.Attrs, key) }

func findAttr(attrs []Attr, key string) (Attr, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// RankTracer records the spans and instants of one rank. Only the
// rank's goroutine records (so record order stays deterministic), but
// the record path takes a short mutex so a reader can snapshot a
// consistent prefix even while the rank is still recording.
type RankTracer struct {
	id       int
	mu       sync.Mutex
	spans    []Span
	instants []Instant
}

// Span records a completed interval. Calls on a nil tracer are no-ops.
func (t *RankTracer) Span(name string, start, end vtime.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Attrs: attrs})
	t.mu.Unlock()
}

// Instant records a point event. Calls on a nil tracer are no-ops.
func (t *RankTracer) Instant(name string, ts vtime.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.instants = append(t.instants, Instant{Name: name, Ts: ts, Attrs: attrs})
	t.mu.Unlock()
}

// Enabled reports whether this handle records anything, so callers can
// skip attribute computation entirely on the fast path.
func (t *RankTracer) Enabled() bool { return t != nil }

// Tracer holds one track per rank, plus the run's message-flow
// recorder (DESIGN §14) so every consumer of a Tracer — the Chrome
// exporter, the analyzers — sees spans and flows as
// one coherent snapshot.
type Tracer struct {
	ranks []*RankTracer
	flows *FlowRecorder
}

// NewTracer creates a tracer for procs ranks.
func NewTracer(procs int) *Tracer {
	t := &Tracer{ranks: make([]*RankTracer, procs), flows: NewFlowRecorder(procs)}
	for i := range t.ranks {
		t.ranks[i] = &RankTracer{id: i}
	}
	return t
}

// Flows returns the tracer's flow recorder, nil when t is nil (every
// method of a nil *FlowRecorder is a no-op).
func (t *Tracer) Flows() *FlowRecorder {
	if t == nil {
		return nil
	}
	return t.flows
}

// Procs returns the number of tracks. Zero on a nil tracer.
func (t *Tracer) Procs() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Rank returns the track handle for one rank, nil when t is nil.
func (t *Tracer) Rank(id int) *RankTracer {
	if t == nil || id < 0 || id >= len(t.ranks) {
		return nil
	}
	return t.ranks[id]
}

// Spans returns a copy of rank id's recorded spans in record order.
// Safe to call while the run is still recording: the copy is a
// consistent prefix of the rank's timeline.
func (t *Tracer) Spans(id int) []Span {
	if rt := t.Rank(id); rt != nil {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return append([]Span(nil), rt.spans...)
	}
	return nil
}

// Instants returns a copy of rank id's recorded instants in record
// order. Safe to call mid-run, like Spans.
func (t *Tracer) Instants(id int) []Instant {
	if rt := t.Rank(id); rt != nil {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return append([]Instant(nil), rt.instants...)
	}
	return nil
}
