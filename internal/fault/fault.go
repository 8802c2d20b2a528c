// Package fault provides a deterministic, seeded fault-injection plan
// for the virtual cluster. The paper's system ran on up to 32,768 Blue
// Gene/P ranks, a scale where rank failures, lost messages and flaky
// storage are routine; this package lets a test or experiment declare
// exactly which of those faults occur — crash rank 5 during the compute
// stage, drop the first merge payload from rank 3 to rank 0, corrupt a
// message, fail the first two writes to the output file — and the
// substrate (internal/mpsim) injects them at the matching points.
//
// Injection lives in the substrate, not the algorithm: the merge and
// pipeline code only ever sees the *consequences* (a receive timeout, a
// checksum mismatch, an I/O error) and must recover through the same
// paths a production deployment would use.
//
// Determinism: all random choices draw from a single seeded generator
// guarded by the plan's mutex. Rules targeted at a concrete
// (source, destination, ordinal) triple are fully deterministic because
// one rank's sends to one peer are program-ordered; probabilistic rules
// are seeded but depend on goroutine scheduling order across ranks.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// MsgAction is the fate of one point-to-point message.
type MsgAction int

const (
	// Deliver passes the message through unharmed.
	Deliver MsgAction = iota
	// Drop discards the message; the sender is not told.
	Drop
	// Duplicate delivers the message twice.
	Duplicate
	// Delay delivers the message with extra virtual latency.
	Delay
	// Corrupt flips bytes in a copy of the payload before delivery.
	Corrupt
)

func (a MsgAction) String() string {
	switch a {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	default:
		return "deliver"
	}
}

// FSOp distinguishes filesystem fault targets.
type FSOp int

const (
	// FSRead faults ReadAt operations.
	FSRead FSOp = iota
	// FSWrite faults WriteAt operations.
	FSWrite
)

func (o FSOp) String() string {
	if o == FSWrite {
		return "write"
	}
	return "read"
}

// Any is the wildcard for rule fields matching ranks.
const Any = -1

// msgRule matches point-to-point messages. Src/Dst of Any match every
// rank; Nth (1-based) selects the nth matching message, 0 selects every
// match; Prob, when nonzero, fires with that probability per match.
type msgRule struct {
	src, dst   int
	nth        int
	prob       float64
	action     MsgAction
	extraDelay float64
	seen       int
}

// crashRule crashes a rank at the first checkpoint whose stage matches
// (empty stage = any) and whose virtual time is at least after.
type crashRule struct {
	rank  int
	stage string
	after float64
	fired bool
}

// fsRule fails filesystem operations. times is how many matching
// operations fail transiently; times < 0 means every match fails
// permanently. With corrupt set, the rule does not fail the operation:
// it bit-flips the bytes a read returns instead (times reads, or every
// read when times < 0).
type fsRule struct {
	op      FSOp
	name    string // "" = any file
	times   int
	count   int
	corrupt bool
}

// Plan is a seeded set of fault rules consulted by the mpsim substrate.
// Build one with NewPlan and the chainable rule methods, then hand it to
// mpsim.Config.Faults before the run. A nil *Plan is valid everywhere
// and injects nothing.
type Plan struct {
	mu      sync.Mutex
	rng     *rand.Rand
	msgs    []*msgRule
	crashes []*crashRule
	fs      []*fsRule
	penalty float64
	log     []string
}

// NewPlan creates an empty plan whose random choices (corruption
// positions, probabilistic rules) derive from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed))}
}

// CrashRank crashes the rank at its first checkpoint of the named stage
// (empty = its next checkpoint of any stage). The rank loses all
// application state there and continues as a restarted process.
func (p *Plan) CrashRank(rank int, stage string) *Plan {
	return p.CrashRankAfter(rank, stage, 0)
}

// CrashRankAfter crashes the rank at its first matching checkpoint whose
// virtual time is at least after seconds.
func (p *Plan) CrashRankAfter(rank int, stage string, after float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashes = append(p.crashes, &crashRule{rank: rank, stage: stage, after: after})
	return p
}

// RestartPenalty sets the virtual seconds a crashed rank spends
// restarting before it re-enters the program.
func (p *Plan) RestartPenalty(seconds float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.penalty = seconds
	return p
}

// DropMessage drops the nth message from src to dst (Any wildcards
// match every rank; nth 0 drops every match).
func (p *Plan) DropMessage(src, dst, nth int) *Plan {
	return p.addMsgRule(&msgRule{src: src, dst: dst, nth: nth, action: Drop})
}

// DuplicateMessage delivers the nth message from src to dst twice.
func (p *Plan) DuplicateMessage(src, dst, nth int) *Plan {
	return p.addMsgRule(&msgRule{src: src, dst: dst, nth: nth, action: Duplicate})
}

// DelayMessage adds extra virtual seconds to the nth message from src
// to dst, enough to push it past a receiver's deadline if larger than
// the receive timeout.
func (p *Plan) DelayMessage(src, dst, nth int, seconds float64) *Plan {
	return p.addMsgRule(&msgRule{src: src, dst: dst, nth: nth, action: Delay, extraDelay: seconds})
}

// CorruptMessage flips random bytes in the nth message from src to dst.
func (p *Plan) CorruptMessage(src, dst, nth int) *Plan {
	return p.addMsgRule(&msgRule{src: src, dst: dst, nth: nth, action: Corrupt})
}

// DropProbability drops every message independently with probability
// prob. Seeded but schedule-dependent; prefer the targeted rules in
// deterministic tests.
func (p *Plan) DropProbability(prob float64) *Plan {
	return p.addMsgRule(&msgRule{src: Any, dst: Any, prob: prob, action: Drop})
}

func (p *Plan) addMsgRule(r *msgRule) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msgs = append(p.msgs, r)
	return p
}

// FailRead makes the next times reads of the named file (empty = any)
// fail transiently; times < 0 makes every read fail permanently.
func (p *Plan) FailRead(name string, times int) *Plan {
	return p.addFSRule(&fsRule{op: FSRead, name: name, times: times})
}

// FailWrite is FailRead for writes.
func (p *Plan) FailWrite(name string, times int) *Plan {
	return p.addFSRule(&fsRule{op: FSWrite, name: name, times: times})
}

// CorruptRead makes the next times reads of the named file (empty =
// any) return bit-flipped copies of the stored bytes; times < 0
// corrupts every read. The file itself is never mutated, and the read
// does not fail — readers must detect the damage through checksums
// (the PCSFM2 payload and footer CRCs) and treat the data as invalid.
func (p *Plan) CorruptRead(name string, times int) *Plan {
	return p.addFSRule(&fsRule{op: FSRead, name: name, times: times, corrupt: true})
}

func (p *Plan) addFSRule(r *fsRule) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fs = append(p.fs, r)
	return p
}

// Delivery is one copy of a message the plan lets through. ExtraDelay is
// added to the modeled arrival time.
type Delivery struct {
	Data       []byte
	ExtraDelay float64
}

// OnSend decides the fate of a message about to be enqueued and returns
// the deliveries to perform: none for a drop, one for normal, delayed or
// corrupted delivery, two for a duplicate. The payload is never mutated;
// a corrupted delivery carries a mutated copy. Safe on a nil plan.
func (p *Plan) OnSend(src, dst, tag int, data []byte) []Delivery {
	if p == nil {
		return []Delivery{{Data: data}}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.msgs {
		if (r.src != Any && r.src != src) || (r.dst != Any && r.dst != dst) {
			continue
		}
		r.seen++
		if r.nth != 0 && r.seen != r.nth {
			continue
		}
		if r.prob > 0 && p.rng.Float64() >= r.prob {
			continue
		}
		p.logf("%s msg src=%d dst=%d tag=%d len=%d", r.action, src, dst, tag, len(data))
		switch r.action {
		case Drop:
			return nil
		case Duplicate:
			return []Delivery{{Data: data}, {Data: data}}
		case Delay:
			return []Delivery{{Data: data, ExtraDelay: r.extraDelay}}
		case Corrupt:
			return []Delivery{{Data: p.corrupt(data)}}
		}
	}
	return []Delivery{{Data: data}}
}

// corrupt returns a copy of data with one to four bytes flipped (or a
// single junk byte for an empty payload). Callers hold p.mu.
func (p *Plan) corrupt(data []byte) []byte {
	if len(data) == 0 {
		return []byte{0x5a}
	}
	out := append([]byte(nil), data...)
	flips := 1 + p.rng.Intn(4)
	for i := 0; i < flips; i++ {
		out[p.rng.Intn(len(out))] ^= byte(1 + p.rng.Intn(255))
	}
	return out
}

// OnCheckpoint reports whether the rank crashes at this checkpoint. Each
// crash rule fires at most once. Safe on a nil plan.
func (p *Plan) OnCheckpoint(rank int, stage string, now float64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.crashes {
		if r.fired || r.rank != rank || now < r.after {
			continue
		}
		if r.stage != "" && r.stage != stage {
			continue
		}
		r.fired = true
		p.logf("crash rank=%d stage=%s t=%.6f", rank, stage, now)
		return true
	}
	return false
}

// Penalty returns the configured virtual restart duration.
func (p *Plan) Penalty() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.penalty
}

// OnFS reports the injected error, if any, for one filesystem operation.
// Safe on a nil plan.
func (p *Plan) OnFS(op FSOp, name string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.fs {
		if r.corrupt || r.op != op || (r.name != "" && r.name != name) {
			continue
		}
		if r.times < 0 {
			p.logf("fs %s %q permanent failure", op, name)
			return &FSError{Op: op, Name: name}
		}
		if r.count < r.times {
			r.count++
			p.logf("fs %s %q transient failure %d/%d", op, name, r.count, r.times)
			return &FSError{Op: op, Name: name, Transient: true}
		}
	}
	return nil
}

// OnFSRead gives the plan a chance to corrupt the bytes a successful
// read returns. The input slice is owned by the caller (already a
// copy), so corruption may mutate it in place via the plan's seeded
// flipper. Safe on a nil plan.
func (p *Plan) OnFSRead(name string, data []byte) []byte {
	if p == nil {
		return data
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.fs {
		if !r.corrupt || r.op != FSRead || (r.name != "" && r.name != name) {
			continue
		}
		if r.times >= 0 {
			if r.count >= r.times {
				continue
			}
			r.count++
		}
		p.logf("fs corrupt read %q len=%d", name, len(data))
		return p.corrupt(data)
	}
	return data
}

func (p *Plan) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// Injected returns a copy of the injection log: one line per fault the
// plan actually fired, in firing order.
func (p *Plan) Injected() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.log...)
}

// FSError is an injected filesystem failure. Transient errors model
// flaky storage and should be retried; permanent ones should surface.
type FSError struct {
	Op        FSOp
	Name      string
	Transient bool
}

func (e *FSError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("fault: injected %s %s error on %q", kind, e.Op, e.Name)
}

// IsTransient reports whether err is (or wraps) a transient injected
// filesystem error, the signal for retry-with-backoff.
func IsTransient(err error) bool {
	var fe *FSError
	return errors.As(err, &fe) && fe.Transient
}

// Report tallies the faults a run observed and recovered from. Each rank
// accumulates its own Report; the pipeline aggregates them into the
// run-level Result.FaultReport.
type Report struct {
	// RankCrashes counts checkpoints at which a rank lost its state.
	RankCrashes int
	// Timeouts counts receives that hit their deadline.
	Timeouts int
	// Corruptions counts framed payloads rejected by checksum or
	// deserialization.
	Corruptions int
	// Recomputes counts deterministic block-subtree reconstructions.
	Recomputes int
	// RecomputeCells totals the cells visited re-deriving lost blocks
	// from source data — the compute-side recovery cost a checkpoint
	// read replaces.
	RecomputeCells int64
	// CheckpointRestores counts lost subtrees served from a valid
	// merge-round checkpoint instead of a recompute.
	CheckpointRestores int
	// CheckpointBytesRead totals the checkpoint file bytes read by
	// successful restores — the I/O-side recovery cost.
	CheckpointBytesRead int64
	// CheckpointFallbacks counts restore probes that found no valid
	// checkpoint (missing, corrupted, or crash before the first
	// checkpointed round) and fell back to recompute.
	CheckpointFallbacks int
	// IORetries counts filesystem operations retried after transient
	// errors.
	IORetries int
	// LostBlocks lists blocks whose in-memory complex was lost to a
	// crash, drop or corruption (sorted, deduplicated after
	// aggregation).
	LostBlocks []int
	// RecoveredBlocks lists blocks rebuilt by recompute (sorted,
	// deduplicated after aggregation).
	RecoveredBlocks []int
	// RestoredBlocks lists blocks whose state came back from a
	// merge-round checkpoint read (sorted, deduplicated after
	// aggregation).
	RestoredBlocks []int
	// TimeoutWaitSeconds totals the virtual time roots actually spent
	// blocked in receives that then hit their deadline — the wait the
	// timed-out merge rounds paid, which straggler attribution needs
	// alongside the bare Timeouts count.
	TimeoutWaitSeconds float64
	// Migrations counts blocks this rank took over from a failed owner
	// through the ownership table.
	Migrations int
	// MigratedBlocks lists the blocks that changed owner after a rank
	// failure (sorted, deduplicated after aggregation).
	MigratedBlocks []int
	// CheckpointsGCed counts superseded checkpoint files reclaimed by
	// the checkpoint garbage collector.
	CheckpointsGCed int
	// CheckpointGCBytes totals the bytes those reclaimed files held.
	CheckpointGCBytes int64
}

// Normalize sorts and deduplicates the block lists.
func (r *Report) Normalize() {
	r.LostBlocks = sortDedup(r.LostBlocks)
	r.RecoveredBlocks = sortDedup(r.RecoveredBlocks)
	r.RestoredBlocks = sortDedup(r.RestoredBlocks)
	r.MigratedBlocks = sortDedup(r.MigratedBlocks)
}

// Faulty reports whether anything at all was observed.
func (r *Report) Faulty() bool {
	return r.RankCrashes != 0 || r.Timeouts != 0 || r.Corruptions != 0 ||
		r.Recomputes != 0 || r.CheckpointRestores != 0 ||
		r.CheckpointFallbacks != 0 || r.IORetries != 0 ||
		len(r.LostBlocks) != 0 || len(r.RecoveredBlocks) != 0 ||
		len(r.RestoredBlocks) != 0 ||
		r.Migrations != 0 || len(r.MigratedBlocks) != 0
}

func (r *Report) String() string {
	return fmt.Sprintf(
		"crashes=%d timeouts=%d (wait=%.3fs) corruptions=%d recomputes=%d (cells=%d) restores=%d (bytes=%d, fallbacks=%d) ioRetries=%d migrations=%d gc=%d (bytes=%d) lost=%v recovered=%v restored=%v migrated=%v",
		r.RankCrashes, r.Timeouts, r.TimeoutWaitSeconds, r.Corruptions,
		r.Recomputes, r.RecomputeCells,
		r.CheckpointRestores, r.CheckpointBytesRead, r.CheckpointFallbacks,
		r.IORetries, r.Migrations,
		r.CheckpointsGCed, r.CheckpointGCBytes,
		r.LostBlocks, r.RecoveredBlocks, r.RestoredBlocks, r.MigratedBlocks)
}

func sortDedup(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
