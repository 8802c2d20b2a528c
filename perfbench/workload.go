package main

import (
	"fmt"
	"runtime"

	"parms"
)

// defaultSeed is the seed the pinned output counts belong to.
const defaultSeed = 1

// persistence is the relative simplification threshold of every
// workload (the paper's "1% persistence simplification").
const persistence = 0.01

// counts is the shape of one compute's output that must repeat exactly
// across calls: alive nodes per Morse index, alive arcs, the Euler
// characteristic summed over output blocks, and the output block count.
type counts struct {
	Nodes        [4]int
	Arcs         int
	Euler        int
	OutputBlocks int
}

func (c counts) String() string {
	return fmt.Sprintf("nodes=%v arcs=%d euler=%d blocks=%d", c.Nodes, c.Arcs, c.Euler, c.OutputBlocks)
}

// recovery describes the fault drill of a workload and the report it
// must produce on every call.
type recovery struct {
	crashRank int
	stage     string
	restored  []int
}

// workload is one benchmark input: a generated volume and the options
// every parms.Compute call of the run uses.
type workload struct {
	name    string
	procs   int
	radices []int // nil selects the full merge
	volume  func(seed int64) *parms.Volume
	// warm is a small volume computed with the same options during
	// set-up, so lazy initialisation is paid outside the timed region.
	// noise-merge warms up on 21³: its 16-rank compute of 13³, a few
	// hundredths of a second, varied by 20% or more from call to call.
	warm func(seed int64) *parms.Volume
	// pinned holds the expected output of the default seed, and
	// pinnedTruncated its count of truncated arc multiplicities.
	pinned          counts
	pinnedTruncated int
	// serial enables the serial-baseline replay step.
	serial bool
	// drill, when non-nil, adds a checkpointed, migrating crash-recovery
	// run with the program's own tracer on.
	drill *recovery
}

// options returns the parms options of one call. A fresh fault plan is
// built every time because a plan's crash rules fire once.
func (w *workload) options(seed int64) parms.Options {
	o := parms.Options{
		Procs:       w.procs,
		Radices:     w.radices,
		FullMerge:   w.radices == nil,
		Persistence: persistence,
		MaxParallel: runtime.NumCPU(),
	}
	if w.drill != nil {
		o.CheckpointEvery = 1
		o.Migrate = true
		o.Trace = true
		o.Faults = parms.NewFaultPlan(seed).CrashRank(w.drill.crashRank, w.drill.stage)
	}
	return o
}

// twinOptions are the options of the fault-free twin a recovery run's
// output is compared with.
func (w *workload) twinOptions(seed int64) parms.Options {
	o := w.options(seed)
	o.Faults = nil
	return o
}

func cubeDims(n int) parms.Dims { return parms.Dims{n, n, n} }

// workloads returns the benchmark's workloads at full size, or at the
// tiny size the tests run.
func workloads(tiny bool) []*workload {
	sinN, noiseN, rtN := 97, 49, 64
	if tiny {
		sinN, noiseN, rtN = 17, 13, 25
	}
	ws := []*workload{
		{
			name:   "smooth-gradient",
			procs:  16,
			volume: func(int64) *parms.Volume { return parms.Sinusoid(sinN, 8) },
			warm:   func(int64) *parms.Volume { return parms.Sinusoid(17, 4) },
			serial: true,
		},
		{
			name:   "noise-merge",
			procs:  16,
			volume: func(seed int64) *parms.Volume { return parms.RandomField(cubeDims(noiseN), seed) },
			warm:   func(seed int64) *parms.Volume { return parms.RandomField(cubeDims(21), seed) },
		},
		{
			name:    "rt-recovery",
			procs:   64,
			radices: []int{4, 4},
			volume:  func(seed int64) *parms.Volume { return rayleighTaylor(rtN, seed) },
			warm:    func(seed int64) *parms.Volume { return rayleighTaylor(21, seed) },
			drill:   &recovery{crashRank: 40, stage: "merge:1", restored: []int{40, 41, 42, 43}},
		},
	}
	pins := pinnedFull
	if tiny {
		pins = pinnedTiny
	}
	for _, w := range ws {
		w.pinned = pins[w.name].out
		w.pinnedTruncated = pins[w.name].truncated
	}
	return ws
}

// rtFieldSeed seeds the Rayleigh-Taylor generator of rt-recovery.
const rtFieldSeed = 1

// rayleighTaylor returns the n³ Rayleigh-Taylor field of rtFieldSeed
// seen under one of the eight symmetries of its horizontal square (x
// flip, y flip, x-y swap), chosen by seed; z, the direction of gravity,
// is kept. The generator's own seed changes the mixing layer's spectrum
// and with it the feature count: over generator seeds 1-5 the
// allocation per compute ranged 731-894 MB, which would hide the
// recovery-path changes this workload exists to show. A symmetry gives
// every seed a different input, with different data in every block and
// nearly the same feature statistics: over the eight symmetries the
// allocation ranged 722-741 MB.
func rayleighTaylor(n int, seed int64) *parms.Volume {
	base := parms.RayleighTaylor(cubeDims(n), rtFieldSeed)
	sym := uint64(seed) % 8
	if sym == 0 {
		return base
	}
	v := parms.NewVolume(base.Dims)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				sx, sy := x, y
				if sym&1 != 0 {
					sx = n - 1 - sx
				}
				if sym&2 != 0 {
					sy = n - 1 - sy
				}
				if sym&4 != 0 {
					sx, sy = sy, sx
				}
				v.Set(x, y, z, base.At(sx, sy, z))
			}
		}
	}
	return v
}

// pin is what the default seed must produce.
type pin struct {
	out       counts
	truncated int
}

// pinnedFull and pinnedTiny are the outputs of the default seed,
// recorded from this pipeline; any change to them is a change in what
// the program computes.
var (
	pinnedFull = map[string]pin{
		"smooth-gradient": {counts{Nodes: [4]int{256, 299, 300, 256}, Arcs: 21335, Euler: 1, OutputBlocks: 1}, 0},
		"noise-merge":     {counts{Nodes: [4]int{16416, 37052, 24068, 3431}, Arcs: 321616, Euler: 1, OutputBlocks: 1}, 1720},
		"rt-recovery":     {counts{Nodes: [4]int{1269, 2882, 1896, 279}, Arcs: 29069, Euler: 4, OutputBlocks: 4}, 979},
	}
	pinnedTiny = map[string]pin{
		"smooth-gradient": {counts{Nodes: [4]int{260, 723, 720, 256}, Arcs: 7962, Euler: 1, OutputBlocks: 1}, 0},
		"noise-merge":     {counts{Nodes: [4]int{318, 643, 367, 41}, Arcs: 4564, Euler: 1, OutputBlocks: 1}, 18},
		"rt-recovery":     {counts{Nodes: [4]int{657, 1329, 778, 102}, Arcs: 12204, Euler: 4, OutputBlocks: 4}, 108},
	}
)

func findWorkload(name string, tiny bool) (*workload, error) {
	var names []string
	for _, w := range workloads(tiny) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
