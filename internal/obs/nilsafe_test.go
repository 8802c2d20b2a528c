package obs

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// TestNilSafety calls every exported method of every observability type
// on a nil receiver. Observability is optional everywhere in the
// pipeline, so the entire API must be inert — never panic — when
// tracing is off and all handles are nil.
func TestNilSafety(t *testing.T) {
	targets := []struct {
		name string
		v    interface{}
	}{
		{"*Tracer", (*Tracer)(nil)},
		{"*RankTracer", (*RankTracer)(nil)},
		{"*FlowRecorder", (*FlowRecorder)(nil)},
	}
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	for _, target := range targets {
		rv := reflect.ValueOf(target.v)
		rt := rv.Type()
		if rt.NumMethod() == 0 {
			t.Errorf("%s has no exported methods — table out of date?", target.name)
		}
		for i := 0; i < rt.NumMethod(); i++ {
			m := rt.Method(i)
			t.Run(target.name+"."+m.Name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s.%s panicked on nil receiver: %v", target.name, m.Name, r)
					}
				}()
				mt := m.Func.Type()
				args := []reflect.Value{rv}
				n := mt.NumIn()
				if mt.IsVariadic() {
					n-- // calling with no variadic args is the edge case we want
				}
				for j := 1; j < n; j++ {
					in := mt.In(j)
					if in == writer {
						args = append(args, reflect.ValueOf(&bytes.Buffer{}))
						continue
					}
					args = append(args, reflect.Zero(in))
				}
				m.Func.Call(args)
			})
		}
	}
}

// TestNilSafetyValues pins the values the nil API returns — not just
// that it survives: nil handles propagate nil, reads come back zero,
// and the writers emit empty-but-valid documents.
func TestNilSafetyValues(t *testing.T) {
	var rt *RankTracer
	if rt.Enabled() {
		t.Error("nil RankTracer reports enabled")
	}
	var tr *Tracer
	if tr.Procs() != 0 || tr.Rank(0) != nil || tr.Spans(0) != nil || tr.Instants(0) != nil {
		t.Error("nil Tracer leaks state")
	}
	if tr.Flows() != nil {
		t.Error("nil Tracer must hand out a nil flow recorder")
	}
	var fr *FlowRecorder
	if id := fr.Begin(0, 0, 1, 0, 8, FlowP2P, 0, 1); id != (FlowID{}) {
		t.Errorf("nil FlowRecorder Begin = %+v, want zero", id)
	}
	fr.Complete(FlowID{}, 0, 1)
	if fr.Flows() != nil || fr.Started() != 0 || fr.Procs() != 0 {
		t.Error("nil FlowRecorder leaks state")
	}
	for _, st := range tr.StageStats("read", "merge") {
		if st != (StageStat{Name: st.Name}) {
			t.Errorf("nil Tracer StageStats entry not zero: %+v", st)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Errorf("nil Tracer trace not valid: %q", buf.String())
	}
}
