// Command tracecheck validates a Chrome trace-event JSON file as
// emitted by msc -trace or Tracer.WriteChromeTrace: the file must be
// well-formed JSON with a traceEvents array, every event needs a known
// phase and a non-negative timestamp, durations must be non-negative,
// complete ("X") event timestamps must be monotonically non-decreasing
// within each (pid, tid) track, and flow events must pair up — every
// start ("s") needs exactly one matching finish ("f") with a
// non-decreasing timestamp, and no finish may lack a start. It prints a
// per-track summary and exits nonzero on any violation, so CI can gate
// on it.
//
// Usage:
//
//	tracecheck [-flows] trace.json
//
// With -flows the file must additionally contain at least one flow
// pair, catching traces accidentally exported without the message
// records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Cat  string   `json:"cat"`
	Id   string   `json:"id"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
}

type trackKey struct{ pid, tid int }

type trackInfo struct {
	spans, instants int
	lastTs          float64
	minTs, maxEnd   float64
}

// flowInfo tracks one flow id's pairing state across the file.
type flowInfo struct {
	starts, finishes int
	startTs          float64
	firstEvent       int // index of the first event with this id, for messages
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run checks the trace named in args, prints the summary to stdout and
// every violation to stderr, and returns the exit code: 0 when the
// trace is valid, 1 on a violation or an unreadable file, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	flags.SetOutput(stderr)
	requireFlows := flags.Bool("flows", false, "require at least one flow start/finish pair")
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracecheck [-flows] trace.json")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if flags.NArg() != 1 {
		flags.Usage()
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tracecheck: "+format+"\n", args...)
		return 1
	}
	path := flags.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return fail("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fail("%s: not valid JSON: %v", path, err)
	}
	if tf.TraceEvents == nil {
		return fail("%s: no traceEvents array", path)
	}

	tracks := make(map[trackKey]*trackInfo)
	flows := make(map[string]*flowInfo)
	violations := 0
	complain := func(i int, ev traceEvent, format string, args ...interface{}) {
		violations++
		fmt.Fprintf(stderr, "tracecheck: event %d (%s %q pid=%d tid=%d): %s\n",
			i, ev.Ph, ev.Name, ev.Pid, ev.Tid, fmt.Sprintf(format, args...))
	}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M": // metadata carries no timestamp
			continue
		case "X", "i", "s", "f":
		default:
			complain(i, ev, "unknown phase %q", ev.Ph)
			continue
		}
		if ev.Ts == nil {
			complain(i, ev, "missing ts")
			continue
		}
		if *ev.Ts < 0 {
			complain(i, ev, "negative ts %g", *ev.Ts)
		}
		key := trackKey{ev.Pid, ev.Tid}
		tr := tracks[key]
		if tr == nil {
			tr = &trackInfo{lastTs: -1, minTs: *ev.Ts}
			tracks[key] = tr
		}
		if *ev.Ts < tr.minTs {
			tr.minTs = *ev.Ts
		}
		end := *ev.Ts
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				complain(i, ev, "complete event missing dur")
				continue
			}
			if *ev.Dur < 0 {
				complain(i, ev, "negative dur %g", *ev.Dur)
			}
			if *ev.Ts < tr.lastTs {
				complain(i, ev, "ts %g goes backwards (previous span started at %g)", *ev.Ts, tr.lastTs)
			}
			tr.lastTs = *ev.Ts
			tr.spans++
			end += *ev.Dur
		case "i":
			tr.instants++
		case "s":
			if ev.Id == "" {
				complain(i, ev, "flow start missing id")
				continue
			}
			fl := flows[ev.Id]
			if fl == nil {
				fl = &flowInfo{firstEvent: i}
				flows[ev.Id] = fl
			}
			fl.starts++
			fl.startTs = *ev.Ts
			if fl.starts > 1 {
				complain(i, ev, "duplicate flow start id %s", ev.Id)
			}
		case "f":
			if ev.Id == "" {
				complain(i, ev, "flow finish missing id")
				continue
			}
			fl := flows[ev.Id]
			if fl == nil || fl.starts == 0 {
				complain(i, ev, "flow finish id %s has no start", ev.Id)
				continue
			}
			fl.finishes++
			if fl.finishes > 1 {
				complain(i, ev, "duplicate flow finish id %s", ev.Id)
			}
			if *ev.Ts < fl.startTs {
				complain(i, ev, "flow finish ts %g precedes start ts %g", *ev.Ts, fl.startTs)
			}
		}
		if end > tr.maxEnd {
			tr.maxEnd = end
		}
	}
	// Every start must have found its finish.
	pairs := 0
	orphanIDs := make([]string, 0)
	for id, fl := range flows {
		if fl.starts > 0 && fl.finishes == 1 {
			pairs++
		}
		if fl.finishes == 0 {
			orphanIDs = append(orphanIDs, id)
		}
	}
	sort.Strings(orphanIDs)
	for _, id := range orphanIDs {
		violations++
		fmt.Fprintf(stderr, "tracecheck: event %d: flow start id %s never finishes\n",
			flows[id].firstEvent, id)
	}

	keys := make([]trackKey, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	fmt.Fprintf(stdout, "%s: %d events, %d tracks, %d flow pair(s)\n", path, len(tf.TraceEvents), len(tracks), pairs)
	for _, k := range keys {
		tr := tracks[k]
		fmt.Fprintf(stdout, "  pid %d tid %d: %d spans, %d instants, [%.3f, %.3f] us\n",
			k.pid, k.tid, tr.spans, tr.instants, tr.minTs, tr.maxEnd)
	}
	if *requireFlows && pairs == 0 {
		return fail("-flows: no flow pairs in %s", path)
	}
	if violations > 0 {
		return fail("%d violation(s)", violations)
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}
