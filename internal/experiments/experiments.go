// Package experiments regenerates every table and figure of the paper's
// evaluation (section VI): the merge cost and strategy tables, the
// size/complexity parameter study, the stability study, and the JET and
// Rayleigh-Taylor strong scaling runs. Each driver returns typed rows
// and can render itself as an aligned text table; cmd/msbench runs them
// from the command line and the root bench suite wraps them in
// testing.B benchmarks.
//
// Dataset sizes default to workstation scale (the original runs used up
// to 5.7 GB of data on 32,768 Blue Gene/P nodes); every driver accepts a
// Scale that multiplies the default extents, and rank counts are NOT
// scaled down — the virtual cluster runs the paper's full process-count
// sweeps.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"text/tabwriter"

	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/pario"
	"parms/internal/pipeline"
)

// Config tunes experiment scale.
type Config struct {
	// Scale multiplies dataset extents (1.0 = workstation defaults;
	// the paper's sizes need roughly Scale 4-8 and hours of runtime).
	Scale float64
	// MaxProcs caps the largest rank count of scaling sweeps (0 = each
	// experiment's default).
	MaxProcs int
	// MaxParallel bounds host goroutine concurrency (0 = NumCPU).
	MaxParallel int
	// Verbose makes drivers print progress to Progress as they go.
	Verbose  bool
	Progress io.Writer
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) maxParallel() int {
	if c.MaxParallel > 0 {
		return c.MaxParallel
	}
	return runtime.NumCPU()
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Verbose && c.Progress != nil {
		fmt.Fprintf(c.Progress, format, args...)
	}
}

// dim scales a default extent, keeping it even (bisection-friendly) and
// at least 16.
func (c Config) dim(base int) int {
	d := int(float64(base) * c.scale())
	if d < 16 {
		d = 16
	}
	return d &^ 1
}

// run executes one pipeline configuration on a fresh virtual cluster.
func run(cfg Config, vol *grid.Volume, procs int, blocks int, radices []int, relPersistence float64) (*pipeline.Result, error) {
	cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel()})
	if err != nil {
		return nil, err
	}
	pario.WriteVolume(cluster.FS(), "volume.raw", vol)
	lo, hi := vol.Range()
	return pipeline.Run(cluster, pipeline.Params{
		File:        "volume.raw",
		Dims:        vol.Dims,
		DType:       vol.DType,
		Blocks:      blocks,
		Radices:     radices,
		Persistence: float32(relPersistence * float64(hi-lo)),
	})
}

// table renders rows with aligned columns.
func table(w io.Writer, header []string, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

func radixString(radices []int) string {
	parts := make([]string, len(radices))
	for i, r := range radices {
		parts[i] = fmt.Sprint(r)
	}
	return strings.Join(parts, " ")
}

func pow2Sweep(lo, hi int) []int {
	var out []int
	for p := lo; p <= hi; p *= 2 {
		out = append(out, p)
	}
	return out
}

// runKeep is run with the final complexes retained in the result.
func runKeep(cfg Config, vol *grid.Volume, procs int, blocks int, radices []int, relPersistence float64) (*pipeline.Result, error) {
	cluster, err := mpsim.New(mpsim.Config{Procs: procs, MaxParallel: cfg.maxParallel()})
	if err != nil {
		return nil, err
	}
	pario.WriteVolume(cluster.FS(), "volume.raw", vol)
	lo, hi := vol.Range()
	return pipeline.Run(cluster, pipeline.Params{
		File:          "volume.raw",
		Dims:          vol.Dims,
		DType:         vol.DType,
		Blocks:        blocks,
		Radices:       radices,
		Persistence:   float32(relPersistence * float64(hi-lo)),
		KeepComplexes: true,
	})
}

// fullRadices is the paper-recommended full-merge schedule for nblocks.
func fullRadices(nblocks int) []int { return merge.Full(nblocks).Radices }

// lowestComplex returns the complex of the lowest surviving block id.
func lowestComplex(r *pipeline.Result) *mscomplex.Complex {
	best := -1
	for id := range r.Complexes {
		if best < 0 || id < best {
			best = id
		}
	}
	return r.Complexes[best]
}
