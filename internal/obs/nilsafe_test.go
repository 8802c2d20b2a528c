package obs

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("no samples", func(t *testing.T) {
		h := &Histogram{}
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%g) = %d, want 0", q, got)
			}
		}
		if (*Histogram)(nil).Quantile(0.5) != 0 {
			t.Error("nil Quantile != 0")
		}
	})
	t.Run("one sample", func(t *testing.T) {
		h := &Histogram{}
		h.Observe(100)
		// A single observation lands in the [65,128] bucket; every
		// quantile reads the same boundary, including clamped-out-of-
		// range q.
		for _, q := range []float64{-1, 0, 0.5, 0.95, 1, 2} {
			if got := h.Quantile(q); got != 128 {
				t.Errorf("Quantile(%g) = %d, want 128", q, got)
			}
		}
	})
	t.Run("all equal", func(t *testing.T) {
		h := &Histogram{}
		for i := 0; i < 10; i++ {
			h.Observe(64) // a power of two is its own bucket boundary
		}
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got := h.Quantile(q); got != 64 {
				t.Errorf("Quantile(%g) = %d, want 64", q, got)
			}
		}
	})
	t.Run("p95 under 20 samples", func(t *testing.T) {
		// With n < 20, ceil(0.95·n) = n: the p95 must include the
		// largest sample, not round it away.
		h := &Histogram{}
		for i := 0; i < 4; i++ {
			h.Observe(1)
		}
		h.Observe(1024)
		if got := h.Quantile(0.95); got != 1024 {
			t.Errorf("Quantile(0.95) = %d, want 1024", got)
		}
		if got := h.Quantile(0.5); got != 1 {
			t.Errorf("Quantile(0.5) = %d, want 1", got)
		}
	})
	t.Run("negative counts as zero", func(t *testing.T) {
		h := &Histogram{}
		h.Observe(-7)
		if got, want := h.Sum(), int64(0); got != want {
			t.Errorf("Sum = %d, want %d", got, want)
		}
		if got := h.Quantile(1); got != 1 {
			t.Errorf("Quantile(1) = %d, want 1 (the v<=1 bucket)", got)
		}
	})
}

// TestNilSafety calls every exported method of every observability type
// on a nil receiver. Observability is optional everywhere in the
// pipeline, so the entire API must be inert — never panic — when
// tracing is off and all handles are nil.
func TestNilSafety(t *testing.T) {
	targets := []struct {
		name string
		v    interface{}
	}{
		{"*Observer", (*Observer)(nil)},
		{"*Tracer", (*Tracer)(nil)},
		{"*RankTracer", (*RankTracer)(nil)},
		{"*Registry", (*Registry)(nil)},
		{"*FlowRecorder", (*FlowRecorder)(nil)},
		{"*Counter", (*Counter)(nil)},
		{"*Gauge", (*Gauge)(nil)},
		{"*Histogram", (*Histogram)(nil)},
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
	var o *Observer
	if o.Rank(3) != nil || o.Registry() != nil || o.Tracer() != nil {
		t.Error("nil Observer must hand out nil handles")
	}
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
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Histogram("h").Observe(1)
	if reg.CounterValue("c") != 0 || reg.GaugeValue("g") != 0 {
		t.Error("nil Registry returned nonzero values")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil Registry wrote %q, want nothing", buf.String())
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Errorf("nil Tracer trace not valid: %q", buf.String())
	}
}
