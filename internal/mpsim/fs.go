package mpsim

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"parms/internal/fault"
	"parms/internal/obs"
	"parms/internal/vtime"
)

// FS models the cluster's shared parallel filesystem. Files are byte
// arrays addressable at arbitrary offsets, so many ranks can write
// disjoint regions of the same file concurrently, as with MPI-IO file
// views. Contents can be imported from and exported to the host
// filesystem.
type FS struct {
	mu     sync.Mutex
	files  map[string]*file
	faults *fault.Plan // nil = reliable storage
}

type file struct {
	mu   sync.Mutex
	data []byte
}

// NewFS creates an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*file)}
}

func (fs *FS) open(name string, create bool) (*file, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("mpsim: file %q does not exist", name)
		}
		f = &file{}
		fs.files[name] = f
	}
	return f, nil
}

// Create makes (or truncates) a file.
func (fs *FS) Create(name string) {
	f, _ := fs.open(name, true)
	f.mu.Lock()
	f.data = f.data[:0]
	f.mu.Unlock()
}

// WriteAt stores data at the given offset, growing the file as needed.
// A fault plan may make it fail transiently (retryable) or permanently.
func (fs *FS) WriteAt(name string, off int64, data []byte) error {
	if err := fs.faults.OnFS(fault.FSWrite, name); err != nil {
		return err
	}
	f, err := fs.open(name, true)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(data))
	if int64(len(f.data)) < end {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:end], data)
	return nil
}

// ReadAt returns n bytes starting at off. A fault plan may make it fail
// transiently (retryable) or permanently.
func (fs *FS) ReadAt(name string, off int64, n int) ([]byte, error) {
	if err := fs.faults.OnFS(fault.FSRead, name); err != nil {
		return nil, err
	}
	f, err := fs.open(name, false)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off+int64(n) > int64(len(f.data)) {
		return nil, fmt.Errorf("mpsim: read [%d,%d) out of bounds of %q (len %d)", off, off+int64(n), name, len(f.data))
	}
	out := make([]byte, n)
	copy(out, f.data[off:])
	// A fault plan may hand back a bit-flipped copy without mutating the
	// stored bytes; checksummed readers detect and reject the damage.
	return fs.faults.OnFSRead(name, out), nil
}

// Size returns the current length of a file.
func (fs *FS) Size(name string) (int64, error) {
	f, err := fs.open(name, false)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

// Put stores a whole file.
func (fs *FS) Put(name string, data []byte) {
	f, _ := fs.open(name, true)
	f.mu.Lock()
	f.data = append(f.data[:0], data...)
	f.mu.Unlock()
}

// Get returns a copy of a whole file.
func (fs *FS) Get(name string) ([]byte, error) {
	f, err := fs.open(name, false)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Remove deletes a file, returning its size and whether it existed.
// Removal is a metadata operation and never fails under a fault plan:
// checkpoint GC must be able to reclaim space even on a flaky
// filesystem (a failed unlink would just be retried by the next GC
// pass anyway).
func (fs *FS) Remove(name string) (int64, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	n := int64(len(f.data))
	f.mu.Unlock()
	delete(fs.files, name)
	return n, true
}

// Names lists the files present, sorted.
func (fs *FS) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Import loads a host file into the virtual filesystem under the same
// name.
func (fs *FS) Import(hostPath, name string) error {
	data, err := os.ReadFile(hostPath)
	if err != nil {
		return err
	}
	fs.Put(name, data)
	return nil
}

// Export writes a virtual file out to the host filesystem.
func (fs *FS) Export(name, hostPath string) error {
	data, err := fs.Get(name)
	if err != nil {
		return err
	}
	return os.WriteFile(hostPath, data, 0o644)
}

// Transient-error retry policy for rank-side I/O: up to ioRetryLimit
// retries with exponential virtual backoff starting at ioRetryBackoff
// seconds, the standard posture against a flaky parallel filesystem.
// Permanent errors surface immediately.
const (
	ioRetryLimit   = 5
	ioRetryBackoff = 1e-3
)

// retryIO runs op, retrying transient failures with backoff charged to
// this rank's virtual clock.
func (r *Rank) retryIO(op func() error) error {
	backoff := ioRetryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !fault.IsTransient(err) || attempt == ioRetryLimit {
			return err
		}
		r.ioRetries++
		r.tr.Instant("fault:io_retry", r.clock.Now(),
			obs.I("attempt", int64(attempt+1)), obs.S("err", err.Error()))
		r.clock.Advance(vtime.Time(backoff))
		backoff *= 2
	}
}

// CollectiveWrite is the rank-side collective file write (MPI-IO style).
// Every rank in the cluster must call it once per collective operation;
// ranks with nothing to contribute pass an empty data slice (the paper's
// "null write"). Offsets across ranks must not overlap. Clocks advance
// by the modeled I/O time: all participants leave at the global
// completion time, like a collective MPI_File_write_all. Transient
// filesystem errors are retried with backoff; permanent ones surface.
func (r *Rank) CollectiveWrite(name string, off int64, data []byte) error {
	r.collective("CollectiveWrite", noRoot)
	var err error
	if len(data) > 0 {
		err = r.retryIO(func() error { return r.cluster.fs.WriteAt(name, off, data) })
	}
	r.ioAccount(int64(len(data)))
	if err != nil {
		return err
	}
	return nil
}

// CollectiveRead is the rank-side collective file read. Every rank must
// participate; n may be zero. Transient filesystem errors are retried
// with backoff.
func (r *Rank) CollectiveRead(name string, off int64, n int) ([]byte, error) {
	r.collective("CollectiveRead", noRoot)
	var data []byte
	var err error
	if n > 0 {
		err = r.retryIO(func() error {
			var rerr error
			data, rerr = r.cluster.fs.ReadAt(name, off, n)
			return rerr
		})
	}
	r.ioAccount(int64(n))
	if err != nil {
		return nil, err
	}
	return data, nil
}

// IndependentWrite is the rank-side independent file write: only this
// rank participates, no collective synchronization happens, and the
// clock advances by the I/O time of a lone writer. Used for per-root
// artifacts such as merge-round checkpoints, where dragging every rank
// through an Allreduce per round would serialize the pipeline.
// Transient filesystem errors are retried with backoff.
func (r *Rank) IndependentWrite(name string, off int64, data []byte) error {
	var err error
	if len(data) > 0 {
		err = r.retryIO(func() error { return r.cluster.fs.WriteAt(name, off, data) })
	}
	n := int64(len(data))
	r.clock.Advance(r.cluster.machine.IOTime(n, n))
	return err
}

// IndependentRead is the rank-side independent file read, the
// counterpart of IndependentWrite for recovery paths where a single
// root re-reads its own checkpoint. Transient filesystem errors are
// retried with backoff.
func (r *Rank) IndependentRead(name string, off int64, n int) ([]byte, error) {
	var data []byte
	var err error
	if n > 0 {
		err = r.retryIO(func() error {
			var rerr error
			data, rerr = r.cluster.fs.ReadAt(name, off, n)
			return rerr
		})
	}
	nb := int64(n)
	r.clock.Advance(r.cluster.machine.IOTime(nb, nb))
	if err != nil {
		return nil, err
	}
	return data, nil
}

// FileSize returns the current length of a shared-filesystem file, or
// an error if it does not exist. Metadata-only: no clock charge.
func (r *Rank) FileSize(name string) (int64, error) {
	return r.cluster.fs.Size(name)
}

// RemoveFile unlinks a shared-filesystem file, returning its size and
// whether it existed. Like FileSize it is metadata-only — no clock
// charge — matching how parallel filesystems serve unlinks from the
// metadata server without touching data paths.
func (r *Rank) RemoveFile(name string) (int64, bool) {
	return r.cluster.fs.Remove(name)
}

// ioAccount advances every participant's clock for one collective I/O
// operation moving rankBytes on this rank. The total volume is combined
// with an Allreduce (which also performs the collective synchronization
// a two-phase MPI-IO operation implies).
func (r *Rank) ioAccount(rankBytes int64) {
	total := r.allreduce(float64(rankBytes), "sum")
	myTime := r.cluster.machine.IOTime(rankBytes, int64(total))
	// All ranks complete together: the operation takes as long as the
	// slowest participant.
	finish := r.allreduce(float64(r.Clock())+float64(myTime), "max")
	r.clock.AdvanceTo(vtime.Time(finish))
}

// IOAccount advances every rank's clock for one collective I/O round in
// which this rank moved rankBytes. It must be called collectively; ranks
// that moved nothing pass 0 (the "null" participation of section IV-G).
func (r *Rank) IOAccount(rankBytes int64) {
	r.collective("IOAccount", noRoot)
	r.ioAccount(rankBytes)
}
