// Package kernel provides the intra-rank worker pool used by the
// data-parallel compute kernels (gradient batch passes and the
// path-compression sweeps in the tracer).
//
// The design goal is determinism first, speed second: a parallel-for is
// split into fixed-grain chunks whose boundaries depend only on the
// problem size — never on the worker count — so any per-chunk partial
// results can be reduced in chunk-index order and the outcome is
// byte-identical whether the loop ran on one worker or sixteen. Workers
// write only to disjoint index ranges (or per-worker scratch), so the
// schedule cannot influence the result.
//
// A nil *Pool (or a one-worker pool) runs the same chunked loop inline
// on the calling goroutine, which is the reference sequential path.
package kernel

import (
	"sync"
	"sync/atomic"
)

// DefaultGrain is the chunk size used when a kernel passes grain <= 0:
// large enough that chunk dispatch is noise, small enough to balance
// load across workers on realistic block sizes.
const DefaultGrain = 4096

// Pool is a fixed-width worker pool for chunked parallel-for loops.
// The zero value and the nil pool are both valid and mean "sequential".
type Pool struct {
	workers int
}

// New returns a pool of the given width. Widths below 1 clamp to 1
// (sequential); there is no upper clamp so tests can oversubscribe.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Chunks returns the number of fixed-grain chunks Run will split n
// elements into. It depends only on n and grain, never on the pool
// width.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	return (n + grain - 1) / grain
}

// Run executes body over [0,n) split into fixed-grain chunks. body is
// invoked as body(worker, chunk, lo, hi) with 0 <= lo < hi <= n; chunk
// is the chunk index (lo/grain) so callers can accumulate per-chunk
// partials and reduce them in chunk order afterwards. Chunk boundaries
// are identical no matter how many workers execute them; only the
// assignment of chunks to workers varies. body must confine its writes
// to [lo,hi)-indexed slots or to per-worker scratch.
//
// On a nil or single-worker pool every chunk runs on the calling
// goroutine in ascending chunk order.
func (p *Pool) Run(n, grain int, body func(worker, chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	nchunks := (n + grain - 1) / grain
	workers := p.Workers()
	if workers > nchunks {
		workers = nchunks
	}
	if workers == 1 {
		for c := 0; c < nchunks; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(0, c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(worker, c, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
