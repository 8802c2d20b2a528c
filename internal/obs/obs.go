// Package obs is the observability layer of the virtual cluster: a span
// tracer keyed to virtual time (package vtime) and a metrics registry,
// with exporters for the Chrome trace-event format (loadable in
// Perfetto), a Prometheus-style text dump, and a per-stage summary
// table.
//
// The paper's entire evaluation is a stage-time decomposition — read,
// compute, merge, write, max over ranks — but a single max per stage
// cannot say *why* a stage is slow: which rank straggled, which merge
// round dominated, how payloads grew per round, or where fault recovery
// spent its recompute budget. The tracer records one track per rank
// whose spans tile the rank's virtual timeline exactly, so a Perfetto
// view of a run reads like a trace of the same program executed on the
// modeled machine.
//
// Everything is nil-safe by design: a nil *Observer, *Tracer,
// *RankTracer, *Registry, *Counter, *Gauge or *Histogram accepts every
// call as a no-op, so the fault-free fast path with observability
// disabled pays one nil check per hook and allocates nothing.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"parms/internal/vtime"
)

// Observer bundles the tracer and metrics registry attached to one
// cluster run. A nil Observer disables all instrumentation.
type Observer struct {
	Trace   *Tracer
	Metrics *Registry
}

// New creates an Observer with both tracing and metrics enabled for a
// cluster of procs ranks.
func New(procs int) *Observer {
	return &Observer{Trace: NewTracer(procs), Metrics: NewRegistry()}
}

// Rank returns the per-rank tracer handle, nil when o or its tracer is
// nil (every method of a nil *RankTracer is a no-op).
func (o *Observer) Rank(id int) *RankTracer {
	if o == nil {
		return nil
	}
	return o.Trace.Rank(id)
}

// Registry returns the metrics registry, nil when o is nil.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Tracer returns the trace store, nil-safe like Registry.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// FlowRecorder returns the per-message causal flow recorder hanging
// off the tracer, nil when o (or its tracer) is nil. All methods of a
// nil *FlowRecorder are no-ops, so the substrate instruments sends and
// receives unconditionally.
func (o *Observer) FlowRecorder() *FlowRecorder {
	if o == nil {
		return nil
	}
	return o.Trace.Flows()
}

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

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. No-op (and allocation-free) on nil.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count, 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 supporting set, add and running-max
// updates.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds d. No-op on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is larger. No-op on nil.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value, 0 on nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts observations v with v <= 1<<i, the last bucket is +Inf.
const histBuckets = 63

// Histogram is a fixed power-of-two-bucketed histogram of non-negative
// integer observations (payload sizes, path lengths, gather counts).
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value. Negative values count as zero. No-op on
// nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := 0
	if v > 1 {
		idx = bits.Len64(uint64(v))
		if v&(v-1) == 0 {
			idx--
		}
		if idx > histBuckets {
			idx = histBuckets
		}
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations, 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations, 0 on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile from the power-of-two buckets: it
// returns the smallest bucket boundary b (a power of two) such that at
// least ceil(q·count) observations are <= b — an upper bound within a
// factor of two of the true quantile. It returns 0 with no
// observations, and math.MaxInt64 when the quantile falls in the +Inf
// bucket. q is clamped to [0, 1]; nil-safe.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			return 1 << i
		}
	}
	return math.MaxInt64
}

// Registry is a named collection of counters, gauges and histograms.
// Lookups lock; the returned instruments update atomically, so hot
// paths resolve their instruments once and hold the pointers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil on a
// nil registry. Histogram names must not carry a {label} suffix (the
// Prometheus dump appends its own le labels).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value without creating it.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue returns the named gauge's value without creating it.
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	return g.Value()
}

// Label formats a metric name with label pairs in the Prometheus style:
// Label("x_total", "round", "2") == `x_total{round="2"}`. Pairs are
// emitted in argument order, so equal arguments yield equal names.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// sortedKeys returns the sorted keys of m.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
