package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"parms/internal/obs"
	"parms/internal/vtime"
)

// ParseChromeTrace reads a trace previously written by
// obs.Tracer.WriteChromeTrace back into an Input (BytesSent left zero —
// take it from ParsePrometheus). Timestamps come back as virtual
// seconds with the file's nanosecond fixed-point resolution, and
// attributes are re-ordered by key so parsing is deterministic
// regardless of the recording order the map decode discarded. A tid
// outside [0, number of events) is an error: the writer names every
// rank's track with its own thread_name event, so no well-formed file
// has more ranks than events.
func ParseChromeTrace(r io.Reader) (*Input, error) {
	var doc struct {
		TraceEvents []struct {
			Name string                     `json:"name"`
			Cat  string                     `json:"cat"`
			Ph   string                     `json:"ph"`
			Id   string                     `json:"id"`
			Tid  int                        `json:"tid"`
			Ts   json.Number                `json:"ts"`
			Dur  json.Number                `json:"dur"`
			Args map[string]json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("analyze: parse trace: %w", err)
	}
	in := &Input{}
	for _, ev := range doc.TraceEvents {
		if ev.Tid < 0 || ev.Tid >= len(doc.TraceEvents) {
			return nil, fmt.Errorf("analyze: event %q has tid %d outside [0, %d)", ev.Name, ev.Tid, len(doc.TraceEvents))
		}
		if ev.Tid+1 > in.Procs {
			in.Procs = ev.Tid + 1
		}
	}
	in.Spans = make([][]obs.Span, in.Procs)
	in.Instants = make([][]obs.Instant, in.Procs)
	var flows []obs.Flow
	flowIdx := map[string]int{} // flow event id → index in flows
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			ts, err1 := ev.Ts.Float64()
			dur, err2 := ev.Dur.Float64()
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("analyze: bad span timestamps in %q", ev.Name)
			}
			start := vtime.Time(ts / 1e6)
			in.Spans[ev.Tid] = append(in.Spans[ev.Tid], obs.Span{
				Name:  ev.Name,
				Start: start,
				End:   vtime.Time((ts + dur) / 1e6),
				Attrs: parseArgs(ev.Args),
			})
		case "i":
			ts, err := ev.Ts.Float64()
			if err != nil {
				return nil, fmt.Errorf("analyze: bad instant timestamp in %q", ev.Name)
			}
			in.Instants[ev.Tid] = append(in.Instants[ev.Tid], obs.Instant{
				Name:  ev.Name,
				Ts:    vtime.Time(ts / 1e6),
				Attrs: parseArgs(ev.Args),
			})
		case "s":
			// Flow start: the args carry the full record, with the
			// virtual times in the same fixed-point microseconds as ts
			// (see obs.Flow.startJSON) — parsed here directly, not via
			// the generic attr rebuild.
			if ev.Cat != "flow" {
				continue
			}
			ts, err := ev.Ts.Float64()
			if err != nil {
				return nil, fmt.Errorf("analyze: bad flow timestamp in %q", ev.Name)
			}
			f := obs.Flow{SendVT: vtime.Time(ts / 1e6)}
			if v, ok := argInt(ev.Args, "seq"); ok {
				f.Seq = v
			}
			if v, ok := argInt(ev.Args, "emitter"); ok {
				f.Emitter = int(v)
			}
			if v, ok := argInt(ev.Args, "src"); ok {
				f.Src = int(v)
			}
			if v, ok := argInt(ev.Args, "dst"); ok {
				f.Dst = int(v)
			}
			if v, ok := argInt(ev.Args, "tag"); ok {
				f.Tag = int(v)
			}
			if v, ok := argInt(ev.Args, "bytes"); ok {
				f.Bytes = int(v)
			}
			if v, ok := argString(ev.Args, "kind"); ok {
				f.Kind = v
			}
			if v, ok := argFloat(ev.Args, "arrive"); ok {
				f.ArriveVT = vtime.Time(v / 1e6)
			}
			if v, ok := argFloat(ev.Args, "recv_start"); ok {
				f.RecvStartVT = vtime.Time(v / 1e6)
			}
			flowIdx[ev.Id] = len(flows)
			flows = append(flows, f)
		case "f":
			i, ok := flowIdx[ev.Id]
			if !ok {
				continue
			}
			ts, err := ev.Ts.Float64()
			if err != nil {
				return nil, fmt.Errorf("analyze: bad flow timestamp in %q", ev.Name)
			}
			flows[i].RecvVT = vtime.Time(ts / 1e6)
			flows[i].Done = true
		}
	}
	sort.SliceStable(flows, func(i, j int) bool {
		if flows[i].Emitter != flows[j].Emitter {
			return flows[i].Emitter < flows[j].Emitter
		}
		return flows[i].Seq < flows[j].Seq
	})
	in.Flows = flows
	return in, nil
}

// argInt reads one integer arg; false when absent or non-integer.
func argInt(args map[string]json.RawMessage, key string) (int64, bool) {
	raw, ok := args[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	return v, err == nil
}

// argFloat reads one numeric arg; false when absent or non-numeric.
func argFloat(args map[string]json.RawMessage, key string) (float64, bool) {
	raw, ok := args[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	return v, err == nil
}

// argString reads one string arg; false when absent or not a string.
func argString(args map[string]json.RawMessage, key string) (string, bool) {
	raw, ok := args[key]
	if !ok {
		return "", false
	}
	var s string
	if json.Unmarshal(raw, &s) != nil {
		return "", false
	}
	return s, true
}

// parseArgs rebuilds span attributes from a decoded args object.
// Integers round-trip as I attrs, other numbers as F, strings as S;
// keys are sorted because the JSON object decode loses file order.
func parseArgs(args map[string]json.RawMessage) []obs.Attr {
	if len(args) == 0 {
		return nil
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := make([]obs.Attr, 0, len(keys))
	for _, k := range keys {
		raw := strings.TrimSpace(string(args[k]))
		switch {
		case strings.HasPrefix(raw, `"`):
			var s string
			if json.Unmarshal(args[k], &s) == nil {
				attrs = append(attrs, obs.S(k, s))
			}
		case !strings.ContainsAny(raw, ".eE"):
			if v, err := strconv.ParseInt(raw, 10, 64); err == nil {
				attrs = append(attrs, obs.I(k, v))
			}
		default:
			if v, err := strconv.ParseFloat(raw, 64); err == nil {
				attrs = append(attrs, obs.F(k, v))
			}
		}
	}
	return attrs
}

// ParsePrometheus reads a metrics dump previously written by
// obs.Registry.WritePrometheus into a flat series-name → value map
// (label suffixes kept verbatim, e.g.
// `merge_round_bytes_sent_total{round="0"}`).
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("analyze: bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("analyze: bad metrics value in %q", line)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: read metrics: %w", err)
	}
	return out, nil
}
