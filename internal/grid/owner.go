package grid

import (
	"fmt"
	"sort"
)

// OwnerTable is the run-scoped block-to-rank ownership map. The paper's
// assignment (§IV-A) is the pure function block % procs, frozen at
// startup; the table starts from exactly that block-cyclic layout but
// can change during a run: blocks migrate off crashed ranks onto
// healthy ones, and the initial rotation can be seeded to avoid ranks a
// previous run flagged as stragglers (analyze.Recommend().AvoidRanks).
//
// Every rank holds its own copy of the table and applies the same
// deterministic updates at the same collective points, so the copies
// never diverge — the table is replicated state, not shared state, just
// like the decomposition itself. Version counts applied migrations, so
// two table states can be compared cheaply.
type OwnerTable struct {
	nblocks int
	procs   int
	owner   []int // block id -> owning rank
	failed  []bool
	avoided []bool
	version int
}

// NewOwnerTable creates the paper's block-cyclic layout: block b is
// owned by rank b % procs.
func NewOwnerTable(nblocks, procs int) *OwnerTable {
	return NewOwnerTableAvoiding(nblocks, procs, nil)
}

// NewOwnerTableAvoiding creates a block-cyclic layout rotated around
// the avoided ranks: blocks are dealt cyclically over the non-avoided
// ranks only, so a rank a previous run flagged as a straggler starts
// the run owning nothing. Avoided ranks still participate in every
// collective — they are healthy, just unloaded — and are used as
// migration targets only when no other healthy rank remains. An avoid
// list covering every rank is ignored (someone has to own the blocks).
func NewOwnerTableAvoiding(nblocks, procs int, avoid []int) *OwnerTable {
	t := &OwnerTable{
		nblocks: nblocks,
		procs:   procs,
		owner:   make([]int, nblocks),
		failed:  make([]bool, procs),
		avoided: make([]bool, procs),
	}
	for _, rank := range avoid {
		if rank >= 0 && rank < procs {
			t.avoided[rank] = true
		}
	}
	var pool []int
	for rank := 0; rank < procs; rank++ {
		if !t.avoided[rank] {
			pool = append(pool, rank)
		}
	}
	if len(pool) == 0 {
		// Avoiding everyone is avoiding no one.
		t.avoided = make([]bool, procs)
		for rank := 0; rank < procs; rank++ {
			pool = append(pool, rank)
		}
	}
	for b := 0; b < nblocks; b++ {
		t.owner[b] = pool[b%len(pool)]
	}
	return t
}

// NumBlocks returns the number of blocks the table covers.
func (t *OwnerTable) NumBlocks() int { return t.nblocks }

// Procs returns the rank count the table was built for.
func (t *OwnerTable) Procs() int { return t.procs }

// Version counts the migrations applied so far; two replicas of the
// table are in the same state exactly when their versions match.
func (t *OwnerTable) Version() int { return t.version }

// Owner returns the rank that currently owns a block.
func (t *OwnerTable) Owner(block int) int { return t.owner[block] }

// Blocks returns the sorted block ids a rank currently owns.
func (t *OwnerTable) Blocks(rank int) []int {
	var out []int
	for b, r := range t.owner {
		if r == rank {
			out = append(out, b)
		}
	}
	return out
}

// Healthy reports whether a rank has not been marked failed.
func (t *OwnerTable) Healthy(rank int) bool { return !t.failed[rank] }

// Avoided reports whether the initial layout was seeded to keep load
// off this rank.
func (t *OwnerTable) Avoided(rank int) bool { return t.avoided[rank] }

// MarkFailed records that a rank crashed. Its blocks stay put until
// MigrateFrom (or explicit Migrate calls) moves them; a failed rank is
// never chosen as a migration target again this run.
func (t *OwnerTable) MarkFailed(rank int) {
	if rank >= 0 && rank < t.procs {
		t.failed[rank] = true
	}
}

// Migrate reassigns one block to a new owner and bumps the version.
func (t *OwnerTable) Migrate(block, newRank int) error {
	if block < 0 || block >= t.nblocks {
		return fmt.Errorf("grid: migrate of unknown block %d (have %d)", block, t.nblocks)
	}
	if newRank < 0 || newRank >= t.procs {
		return fmt.Errorf("grid: migrate block %d to invalid rank %d (procs %d)", block, newRank, t.procs)
	}
	t.owner[block] = newRank
	t.version++
	return nil
}

// Migration records one applied ownership change.
type Migration struct {
	Block    int
	From, To int
}

// MigrateFrom marks the given ranks failed and moves every block they
// own out of the surviving set onto healthy ranks chosen by load: each
// block (in ascending id order) goes to the healthy, non-avoided rank
// owning the fewest surviving blocks, ties to the lowest rank id.
// Avoided ranks are drawn on only when no other healthy rank remains,
// and the run errors out when no healthy rank is left at all. The
// procedure is a pure function of (table state, failed, surviving), so
// replicas that apply it with equal arguments stay identical.
func (t *OwnerTable) MigrateFrom(failed []int, surviving []int) ([]Migration, error) {
	for _, rank := range failed {
		t.MarkFailed(rank)
	}
	var targets []int
	for rank := 0; rank < t.procs; rank++ {
		if !t.failed[rank] && !t.avoided[rank] {
			targets = append(targets, rank)
		}
	}
	if len(targets) == 0 {
		for rank := 0; rank < t.procs; rank++ {
			if !t.failed[rank] {
				targets = append(targets, rank)
			}
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("grid: all %d ranks failed; no migration target", t.procs)
	}
	load := make(map[int]int, len(targets))
	orphans := make([]int, 0)
	for _, b := range surviving {
		if t.failed[t.owner[b]] {
			orphans = append(orphans, b)
		} else {
			load[t.owner[b]]++
		}
	}
	sort.Ints(orphans)
	var migs []Migration
	for _, b := range orphans {
		best := targets[0]
		for _, rank := range targets[1:] {
			if load[rank] < load[best] {
				best = rank
			}
		}
		migs = append(migs, Migration{Block: b, From: t.owner[b], To: best})
		t.owner[b] = best
		t.version++
		load[best]++
	}
	return migs, nil
}

// Clone returns an independent copy of the table.
func (t *OwnerTable) Clone() *OwnerTable {
	c := &OwnerTable{
		nblocks: t.nblocks,
		procs:   t.procs,
		owner:   append([]int(nil), t.owner...),
		failed:  append([]bool(nil), t.failed...),
		avoided: append([]bool(nil), t.avoided...),
		version: t.version,
	}
	return c
}
