package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSample is a snapshot of the cumulative runtime counters the
// benchmark differences around calls: heap bytes and objects allocated,
// GC cycles, and the runtime's estimates of GC CPU time and of all CPU
// time available to the process (GOMAXPROCS times wall time).
type runtimeSample struct {
	allocBytes, mallocs, gcCycles, gcCPU, totalCPU float64
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs,
		a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs,
		a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{allocBytes: v[0], mallocs: v[1], gcCycles: v[2], gcCPU: v[3], totalCPU: v[4]}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
