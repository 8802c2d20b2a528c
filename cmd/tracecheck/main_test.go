package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun checks small hand-written traces: the exit code, and the
// summary and violation lines in their order. Tracks and flow ids live
// in maps whose iteration order changes from call to call, so each
// trace is checked several times.
func TestRun(t *testing.T) {
	const meta = `{"ph":"M","name":"thread_name","pid":0,"tid":0}`
	ev := func(ph, id, tid, ts string) string {
		return `{"ph":"` + ph + `","name":"m","cat":"flow","id":"` + id + `","pid":0,"tid":` + tid + `,"ts":` + ts + `}`
	}
	x := func(tid, ts string) string {
		return `{"ph":"X","name":"s","pid":0,"tid":` + tid + `,"ts":` + ts + `,"dur":1}`
	}
	trace := func(events ...string) string {
		return `{"traceEvents":[` + strings.Join(events, ",") + `]}`
	}
	for _, tc := range []struct {
		name   string
		args   []string
		trace  string
		code   int
		stdout []string // lines that must appear in this order
		stderr []string
	}{
		{
			name:  "valid",
			args:  []string{"-flows"},
			trace: trace(meta, x("2", "0"), x("1", "0"), ev("s", "7", "1", "1"), ev("f", "7", "2", "3"), x("1", "4")),
			code:  0,
			stdout: []string{
				"6 events, 2 tracks, 1 flow pair(s)",
				"pid 0 tid 1: 2 spans, 0 instants, [0.000, 5.000] us",
				"pid 0 tid 2: 1 spans, 0 instants, [0.000, 3.000] us",
				"ok",
			},
		},
		{
			name:  "orphan start",
			trace: trace(ev("s", "c", "0", "1"), ev("s", "a", "0", "2"), ev("s", "b", "0", "3"), ev("s", "d", "0", "4"), ev("f", "d", "1", "5")),
			code:  1,
			stderr: []string{
				"event 1: flow start id a never finishes",
				"event 2: flow start id b never finishes",
				"event 0: flow start id c never finishes",
				"3 violation(s)",
			},
		},
		{
			name:   "duplicate finish",
			trace:  trace(ev("s", "1", "0", "1"), ev("f", "1", "1", "2"), ev("f", "1", "1", "3")),
			code:   1,
			stderr: []string{"event 2 (f \"m\" pid=0 tid=1): duplicate flow finish id 1", "1 violation(s)"},
		},
		{
			name:   "time regression",
			trace:  trace(x("0", "5"), x("0", "3")),
			code:   1,
			stderr: []string{"event 1 (X \"s\" pid=0 tid=0): ts 3 goes backwards (previous span started at 5)", "1 violation(s)"},
		},
		{
			name:   "no flows",
			args:   []string{"-flows"},
			trace:  trace(x("0", "1")),
			code:   1,
			stderr: []string{"-flows: no flow pairs"},
		},
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, []byte(tc.trace), 0o644); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 10; rep++ {
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, path), &stdout, &stderr); code != tc.code {
				t.Fatalf("%s: exit code %d, want %d\nstderr:\n%s", tc.name, code, tc.code, stderr.String())
			}
			inOrder(t, tc.name+" stdout", stdout.String(), tc.stdout)
			inOrder(t, tc.name+" stderr", stderr.String(), tc.stderr)
		}
	}
}

// inOrder fails unless every line of want appears in out, in order.
func inOrder(t *testing.T, what, out string, want []string) {
	t.Helper()
	rest := out
	for _, w := range want {
		i := strings.Index(rest, w)
		if i < 0 {
			t.Fatalf("%s: %q missing or out of order in:\n%s", what, w, out)
		}
		rest = rest[i+len(w):]
	}
}
