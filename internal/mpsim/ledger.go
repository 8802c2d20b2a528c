package mpsim

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
)

// ErrCollectiveMismatch marks a run in which the ranks did not enter
// the same collectives in the same order. Under MPI such a program
// deadlocks; the ledger fails the run instead, naming the call sites.
var ErrCollectiveMismatch = errors.New("mpsim: collective mismatch")

// noRoot is the root recorded for collectives that have none.
const noRoot = -1

// ledger checks the SPMD rule that every rank enters the same public
// collectives in the same order (DESIGN §16). The first rank to enter
// its k-th collective records it; every later rank compares against
// that record. It sends no message and advances no clock.
type ledger struct {
	mu      sync.Mutex
	entries []ledgerEntry
	// done is the smallest collective count a rank returned from its
	// body with, and doneRank that rank; done < 0 until a rank returns.
	done, doneRank int
}

// ledgerEntry is one collective as its first rank entered it. pc is
// the caller's program counter, resolved to file:line only on mismatch.
type ledgerEntry struct {
	op   string
	root int
	rank int
	pc   uintptr
}

func (e ledgerEntry) String() string {
	call := e.op
	if e.root != noRoot {
		call = fmt.Sprintf("%s(root %d)", e.op, e.root)
	}
	site := "?"
	if f, _ := runtime.CallersFrames([]uintptr{e.pc}).Next(); f.File != "" {
		site = fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
	}
	return fmt.Sprintf("rank %d entered %s at %s", e.rank, call, site)
}

func (l *ledger) reset() {
	l.mu.Lock()
	l.entries = l.entries[:0]
	l.done, l.doneRank = -1, -1
	l.mu.Unlock()
}

func mismatchf(k int, format string, args ...any) error {
	return fmt.Errorf("%w: collective #%d: "+format, append([]any{ErrCollectiveMismatch, k}, args...)...)
}

// collective records this rank's entry into its next public collective.
// It panics with an ErrCollectiveMismatch error, which safeBody turns
// back into the rank's error, when another rank entered a different
// operation or root at the same index, or already returned without
// entering it. Public collectives call it first thing; the helpers they
// share call each other directly, so a nested collective counts once.
func (r *Rank) collective(op string, root int) {
	me := ledgerEntry{op: op, root: root, rank: r.id}
	var pc [1]uintptr
	// Skip Callers, collective and the public method.
	runtime.Callers(3, pc[:])
	me.pc = pc[0]
	k := r.collectives
	r.collectives++
	l := &r.cluster.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.done >= 0 && l.done <= k:
		panic(mismatchf(k, "%s, but rank %d returned after %d collective(s)",
			me, l.doneRank, l.done))
	case k < len(l.entries):
		if e := l.entries[k]; e.op != op || e.root != root {
			panic(mismatchf(k, "%s, but %s", me, e))
		}
	default:
		l.entries = append(l.entries, me)
	}
}

// finish records that rank returned from its body without error after
// entering n collectives, and reports a mismatch when another rank has
// already entered more.
func (l *ledger) finish(rank, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < len(l.entries) {
		return mismatchf(n, "rank %d returned after %d collective(s), but %s", rank, n, l.entries[n])
	}
	if l.done < 0 || n < l.done {
		l.done, l.doneRank = n, rank
	}
	return nil
}
