package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Name is
// "<layer>.<operation>"; Parent is the enclosing span's ID, -1 at the
// root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the recorder started
	// Mallocs counts the heap allocations made inside the span; while
	// the span is open it holds the allocation count at its start.
	Mallocs float64
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps the replay's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Name: name,
		Start: time.Since(r.t0), Mallocs: readRuntime().mallocs,
	})
	return len(r.spans) - 1
}

// end closes a span.
func (r *recorder) end(id int) {
	s := &r.spans[id]
	s.End = time.Since(r.t0)
	s.Mallocs = readRuntime().mallocs - s.Mallocs
}

// do records f as one span.
func (r *recorder) do(name string, parent int, f func()) {
	id := r.begin(name, parent)
	f()
	r.end(id)
}

// seconds totals the durations of every span with the given name.
func (r *recorder) seconds(name string) float64 {
	t := 0.0
	for _, s := range r.spans {
		if s.Name == name {
			t += (s.End - s.Start).Seconds()
		}
	}
	return t
}

// mallocs totals the heap allocations of the spans with the given names.
func (r *recorder) mallocs(names ...string) float64 {
	n := 0.0
	for _, s := range r.spans {
		for _, name := range names {
			if s.Name == name {
				n += s.Mallocs
			}
		}
	}
	return n
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self float64
}

// selfTimes sums, per span name, the total time and the self time: a
// span's duration minus the part its child spans cover.
func (r *recorder) selfTimes() []layerTime {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += (s.End - s.Start).Seconds()
		}
	}
	rows := map[string]*layerTime{}
	var order []string
	for _, s := range r.spans {
		row, ok := rows[s.Name]
		if !ok {
			row = &layerTime{name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		d := (s.End - s.Start).Seconds()
		row.count++
		row.total += d
		row.self += d - child[s.ID]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func (r *recorder) writeSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-28s %6s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, row := range r.selfTimes() {
		fmt.Fprintf(w, "%-28s %6d %10.4f %10.4f\n", row.name, row.count, row.total, row.self)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), one complete event per span with its parent in the args.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "mallocs": s.Mallocs},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
