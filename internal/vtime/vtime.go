// Package vtime provides virtual clocks and a calibrated cost model for
// simulating the execution time of a distributed-memory program on a
// modeled supercomputer.
//
// The paper this repository reproduces reports wall-clock times measured
// on the IBM Blue Gene/P "Intrepid". We cannot run on that machine, so
// instead every rank of the virtual cluster (package mpsim) carries a
// Clock that advances according to a LogGP-style cost model: compute
// stages advance the clock in proportion to the actual work the
// algorithm performed (cells visited, arcs traced, cancellations
// applied, bytes serialized), and communication advances it by
// latency + per-hop cost + bytes/bandwidth over a modeled 3D torus.
// The resulting times reproduce the *shape* of the paper's scaling
// results — which stage dominates at which scale, log-log slopes, and
// crossover points — while the ranks execute the real algorithm on real
// data.
package vtime

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp, measured in seconds since the start of a
// cluster run. It is a float64 rather than time.Duration because the
// model composes many sub-nanosecond per-element costs.
type Time float64

// Seconds returns t as a plain float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Duration converts t to a time.Duration, saturating on overflow.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t))
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is the virtual clock of a single rank. The zero value is a
// clock at virtual time zero, ready to use.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d seconds. Negative advances are
// ignored: virtual time never runs backwards.
func (c *Clock) Advance(d Time) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to at least t. Used when a message
// or barrier forces this rank to wait for an event on another rank.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero (start of a new run).
func (c *Clock) Reset() { c.now = 0 }

// Work tallies the operations a rank performed during a compute stage.
// The pipeline fills one Work per stage; Machine.ComputeTime converts it
// to virtual seconds.
type Work struct {
	// CellsVisited counts refined-grid cells touched during discrete
	// gradient assignment (each cell is examined a small constant
	// number of times).
	CellsVisited int64
	// PairTests counts candidate facet/cofacet pairing tests.
	PairTests int64
	// PathSteps counts V-path tracing steps (one step = one
	// (d-cell, d+1-cell) hop, including geometry recording).
	PathSteps int64
	// Cancellations counts persistence cancellations applied.
	Cancellations int64
	// ArcsTouched counts arcs created, deleted or rewired during
	// simplification and merging.
	ArcsTouched int64
	// NodesGlued counts node insertions/deduplications during merging.
	NodesGlued int64
	// BytesCoded counts bytes serialized or deserialized.
	BytesCoded int64
	// SortedItems counts n·log n contributions from sorting, with the
	// log factor already folded in by the caller.
	SortedItems int64
	// SweepWrites counts pointer writes made by the path-compression
	// (pointer-jumping) sweeps of the tracer. They are branch-free flat
	// array updates, far cheaper per element than a PathStep.
	SweepWrites int64
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.CellsVisited += o.CellsVisited
	w.PairTests += o.PairTests
	w.PathSteps += o.PathSteps
	w.Cancellations += o.Cancellations
	w.ArcsTouched += o.ArcsTouched
	w.NodesGlued += o.NodesGlued
	w.BytesCoded += o.BytesCoded
	w.SortedItems += o.SortedItems
	w.SweepWrites += o.SweepWrites
}

// Machine is a cost-model profile of the target system. All rates are
// per single rank (the paper runs in smp mode: one process per node).
type Machine struct {
	// Name identifies the profile in reports.
	Name string

	// Compute cost constants, in seconds per operation.
	CellCost   float64 // per refined-grid cell visited
	PairCost   float64 // per pairing test
	StepCost   float64 // per V-path step
	CancelCost float64 // per cancellation
	ArcCost    float64 // per arc touched
	GlueCost   float64 // per node glued
	CodeCost   float64 // per byte (de)serialized
	SortCost   float64 // per sorted item (log factor pre-folded)
	SweepCost  float64 // per pointer-jumping sweep write

	// Network constants.
	MsgLatency   float64 // end-to-end software latency per message, seconds
	HopLatency   float64 // additional latency per torus hop, seconds
	LinkBW       float64 // per-link bandwidth, bytes/second
	RecvOverhead float64 // receiver-side software overhead per message

	// Parallel filesystem constants.
	IOLatency float64 // per collective-I/O-operation latency, seconds
	NodeIOBW  float64 // per-rank I/O bandwidth cap, bytes/second
	AggIOBW   float64 // aggregate filesystem bandwidth, bytes/second
}

// BlueGeneP returns a cost profile shaped after the IBM Blue Gene/P
// "Intrepid": slow single cores (850 MHz PPC450), a fast low-latency 3D
// torus, and a shared parallel filesystem whose aggregate bandwidth is
// the I/O bottleneck at scale. Constants are calibrated so the paper's
// workloads land in the reported orders of magnitude, not to match
// absolute numbers (see DESIGN.md §2).
func BlueGeneP() *Machine {
	return &Machine{
		Name:       "BlueGeneP",
		CellCost:   260e-9,
		PairCost:   65e-9,
		StepCost:   210e-9,
		CancelCost: 3.2e-6,
		ArcCost:    420e-9,
		GlueCost:   650e-9,
		CodeCost:   5.5e-9,
		SortCost:   95e-9,
		SweepCost:  9e-9,

		MsgLatency:   3.5e-6,
		HopLatency:   100e-9,
		LinkBW:       375e6, // 3.4 Gbit/s torus links, effective
		RecvOverhead: 1.5e-6,

		IOLatency: 2.5e-3,
		NodeIOBW:  60e6,
		AggIOBW:   8e9, // shared GPFS aggregate
	}
}

// LocalMeasured returns a profile whose compute constants are all zero;
// it is used together with measured-time accounting, where the pipeline
// advances clocks by real elapsed wall time instead of modeled work.
// Network and I/O constants are kept small but non-zero so that message
// ordering is still well defined.
func LocalMeasured() *Machine {
	return &Machine{
		Name:         "LocalMeasured",
		MsgLatency:   1e-6,
		HopLatency:   10e-9,
		LinkBW:       4e9,
		RecvOverhead: 0.5e-6,
		IOLatency:    1e-4,
		NodeIOBW:     1e9,
		AggIOBW:      4e9,
	}
}

// ComputeTime converts a work tally into modeled seconds on this machine.
func (m *Machine) ComputeTime(w Work) Time {
	s := float64(w.CellsVisited)*m.CellCost +
		float64(w.PairTests)*m.PairCost +
		float64(w.PathSteps)*m.StepCost +
		float64(w.Cancellations)*m.CancelCost +
		float64(w.ArcsTouched)*m.ArcCost +
		float64(w.NodesGlued)*m.GlueCost +
		float64(w.BytesCoded)*m.CodeCost +
		float64(w.SortedItems)*m.SortCost +
		float64(w.SweepWrites)*m.SweepCost
	return Time(s)
}

// MessageTime returns the modeled transfer time for a message of the
// given size traversing hops torus links.
func (m *Machine) MessageTime(bytes int, hops int) Time {
	if bytes < 0 {
		bytes = 0
	}
	if hops < 1 {
		hops = 1
	}
	s := m.MsgLatency + float64(hops)*m.HopLatency
	if m.LinkBW > 0 {
		s += float64(bytes) / m.LinkBW
	}
	return Time(s)
}

// IOTime returns the modeled duration of a collective I/O operation in
// which this rank moves rankBytes and all ranks together move totalBytes.
// The per-rank link to the I/O system and the shared aggregate bandwidth
// are both modeled; the slower constraint dominates.
func (m *Machine) IOTime(rankBytes, totalBytes int64) Time {
	perRank := 0.0
	if m.NodeIOBW > 0 {
		perRank = float64(rankBytes) / m.NodeIOBW
	}
	agg := 0.0
	if m.AggIOBW > 0 {
		agg = float64(totalBytes) / m.AggIOBW
	}
	s := m.IOLatency + perRank
	if agg > s {
		s = agg
	}
	return Time(s)
}

// Efficiency computes strong-scaling efficiency exactly as the paper
// does: the factor decrease in time divided by the factor increase in
// process count, relative to a base measurement.
func Efficiency(baseTime Time, baseProcs int, t Time, procs int) float64 {
	if t <= 0 || procs <= 0 || baseProcs <= 0 {
		return 0
	}
	return (float64(baseTime) / float64(t)) / (float64(procs) / float64(baseProcs))
}
