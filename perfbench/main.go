// Command perfbench is the host-clock benchmark of the parms pipeline.
//
// It generates one workload's volume from --seed, then calls the public
// parms.Compute on it repeatedly for --seconds, checking every output.
// With --trace 0 it reports the end-to-end metrics (medians over the
// calls); with --trace 1 it instead replays the pipeline layer by layer
// from this package, recording a span around every call, and reports
// the per-layer metrics. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"wall_s": {"value": 3.41, "unit": "s"}, ...}}
//
// The process exits 1 when any output check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"parms"
)

// minSamples is the fewest parms.Compute calls an end-to-end run times,
// however short --seconds is.
const minSamples = 3

// Set-up runs setupMinReps times before the first timed call. An
// end-to-end run then repeats it between timed calls while the repeats
// take less than setupShare of the run's elapsed time, so that setup_s,
// the median over all set-ups, sees the same host conditions as the
// timed calls.
const (
	setupMinReps = 3
	setupShare   = 0.1
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // the small variants of the workloads, for the tests
	out      string // directory for the replay's span file; "" writes none
}

// endToEndMetrics lists the end-to-end metrics with their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: smooth-gradient, noise-merge or rt-recovery")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the generated volume and fault plan")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to keep calling parms.Compute")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	fs.StringVar(&cfg.out, "out", "", "directory for the traced replay's span file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// bench holds one run's state.
type bench struct {
	cfg       config
	w         *workload
	out       io.Writer
	chk       *checker
	vol       *parms.Volume
	setups    []float64 // seconds of every set-up of the run
	attempted int
	failed    int
	metrics   map[string]metric
}

func run(cfg config, out io.Writer) (*report, error) {
	w, err := findWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()
	b := &bench{cfg: cfg, w: w, out: out, chk: newChecker(w, cfg.seed), metrics: map[string]metric{}}
	if err := b.setup(); err != nil {
		return nil, err
	}
	if cfg.trace {
		err = b.replay()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	if err := waitGoroutines(goroutines); err != nil {
		return nil, err
	}
	b.printMetrics()
	return &report{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// waitGoroutines fails when more than n goroutines are still running a
// second after the run: every rank, worker and timer goroutine the
// pipeline starts must have exited by then.
func waitGoroutines(n int) error {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines outlive the run (%d before it)", runtime.NumGoroutine(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// setup sets the run up setupMinReps times. For a recovery workload it
// then computes the fault-free twin, outside both set-up and the timed
// region.
func (b *bench) setup() error {
	for range setupMinReps {
		if err := b.setupOnce(); err != nil {
			return err
		}
	}
	if b.w.drill != nil {
		res, err := parms.Compute(b.vol, b.w.twinOptions(b.cfg.seed))
		if err != nil {
			return fmt.Errorf("fault-free twin: %w", err)
		}
		twin, err := outputCounts(res)
		if err != nil {
			return fmt.Errorf("fault-free twin: %w", err)
		}
		b.chk.twin = &twin
	}
	return nil
}

// setupOnce generates the workload's volume and warms the pipeline up
// on a small volume, from a collected heap, and records the duration.
func (b *bench) setupOnce() error {
	runtime.GC()
	t0 := time.Now()
	b.vol = b.w.volume(b.cfg.seed)
	warm := b.w.warm(b.cfg.seed)
	if _, err := parms.Compute(warm, b.w.options(b.cfg.seed)); err != nil {
		return fmt.Errorf("set-up: warm-up compute: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return nil
}

// sample is the cost of one parms.Compute call.
type sample struct {
	wall, cpu, allocMB float64
	rt                 runtimeSample // runtime counter deltas
	res                *parms.Result
}

// compute makes one checked parms.Compute call from a collected heap
// and returns its cost. A failed check counts against the run. When rec
// is non-nil the call is recorded as a span under parent.
func (b *bench) compute(opt parms.Options, rec *recorder, parent int) sample {
	runtime.GC()
	cpu0, rt0 := cpuSeconds(), readRuntime()
	span := -1
	if rec != nil {
		span = rec.begin("parms.compute", parent)
	}
	start := time.Now()
	res, err := parms.Compute(b.vol, opt)
	var s sample
	s.wall = time.Since(start).Seconds()
	if span >= 0 {
		rec.end(span)
	}
	s.cpu = cpuSeconds() - cpu0
	s.rt = readRuntime().minus(rt0)
	s.allocMB = s.rt.allocBytes / mib
	b.attempted++
	if err := b.chk.check(res, err); err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s call %d: %v\n", b.w.name, b.attempted, err)
		return s
	}
	s.res = res
	return s
}

// endToEnd times parms.Compute calls for at least --seconds, with
// set-ups in between, and reports the median cost per call and per
// set-up.
func (b *bench) endToEnd() error {
	var wall, cpu, alloc []float64
	start := time.Now()
	between := 0.0 // seconds of the set-ups between timed calls
	for len(wall) < minSamples || time.Since(start).Seconds() < b.cfg.seconds {
		if between < setupShare*time.Since(start).Seconds() {
			if err := b.setupOnce(); err != nil {
				return err
			}
			between += b.setups[len(b.setups)-1]
		}
		s := b.compute(b.w.options(b.cfg.seed), nil, 0)
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		alloc = append(alloc, s.allocMB)
	}
	b.set("wall_s", median(wall), "s")
	b.set("cpu_s", median(cpu), "s")
	b.set("alloc_mb", median(alloc), "MB")
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	b.set("setup_s", median(b.setups), "s")
	fmt.Fprintf(b.out, "%s seed=%d: %d calls in %.1fs, output %v\n",
		b.w.name, b.cfg.seed, len(wall), time.Since(start).Seconds(), b.chk.ref)
	fmt.Fprintf(b.out, "wall_s per call: %.4f\n", wall)
	fmt.Fprintf(b.out, "setup_s per set-up: %.4f\n", b.setups)
	return nil
}

func (b *bench) printMetrics() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		na := ""
		if notApplicable(b.w, n) {
			na = "  (not applicable)"
		}
		fmt.Fprintf(b.out, "%-30s %16.6g %s%s\n", n, m.Value, m.Unit, na)
	}
}
