// Package mpsim is a message-passing substrate that stands in for MPI on
// a distributed-memory machine. A Cluster runs one goroutine per rank;
// ranks exchange byte-slice messages through matched Send/Recv calls and
// synchronize through collectives, exactly as the paper's MPI
// implementation does.
//
// Every rank carries a virtual clock (package vtime). Messages are
// stamped with the sender's clock on departure, and the receiver's clock
// advances to at least arrival time, so after a run the per-rank clocks
// read like a trace of the same program executed on the modeled machine.
// The message payloads and algorithmic results are real; only the
// timestamps are modeled.
package mpsim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"parms/internal/fault"
	"parms/internal/obs"
	"parms/internal/torus"
	"parms/internal/vtime"
)

// Config describes the virtual machine a Cluster models.
type Config struct {
	// Procs is the number of ranks (the paper's "processes"; BG/P smp
	// mode maps one process per node).
	Procs int
	// Machine is the cost profile; nil selects vtime.BlueGeneP.
	Machine *vtime.Machine
	// Network is the interconnect; nil selects a near-cubic torus with
	// at least Procs nodes.
	Network *torus.Network
	// MaxParallel bounds how many rank goroutines may execute
	// simultaneously; 0 means unbounded. Virtual time is unaffected —
	// this only caps real resource usage when simulating tens of
	// thousands of ranks.
	MaxParallel int
	// Placement maps rank → torus node. nil means the identity (the
	// default row-major BG/P mapping). Hop counts — and therefore
	// modeled message latencies — follow the placement, so mapping
	// experiments can quantify communication locality.
	Placement []int
	// Faults, when non-nil, injects the plan's failures into the
	// substrate: rank crashes at checkpoints, message drop/duplicate/
	// delay/corrupt on point-to-point sends, and transient or permanent
	// filesystem errors. Collectives are exempt (modeled as the
	// hardware-assisted reliable trees of the BG/P).
	Faults *fault.Plan
	// Trace attaches a per-rank span tracer keyed to virtual time, with
	// its message-flow recorder (package obs). nil — the default —
	// disables all instrumentation; every hook then costs one nil check,
	// so the fault-free fast path is unaffected.
	Trace *obs.Tracer
}

// Cluster is a virtual distributed-memory machine.
type Cluster struct {
	cfg     Config
	machine *vtime.Machine
	net     *torus.Network

	mailboxes []*mailbox
	fs        *FS
	placement []int // nil = identity

	// flows records one causal record per message (DESIGN §14); nil —
	// every hook a no-op — when Config.Trace is nil.
	flows *obs.FlowRecorder

	// aborted is set when any rank's body fails, so that ranks blocked
	// in receives unwind instead of waiting forever for messages their
	// dead peer will never send (the MPI_Abort semantics).
	aborted atomic.Bool

	// ledger matches every rank's sequence of public collectives.
	ledger ledger

	gate chan struct{} // nil when MaxParallel == 0
}

// abortMessage is the panic value blocked receives raise when the
// cluster aborts; safeBody converts it into a per-rank error.
const abortMessage = "cluster aborted: a peer rank failed"

// abort wakes every rank blocked in a receive. Locking each mailbox
// before broadcasting guarantees no waiter can miss the wakeup between
// its abort check and its cond.Wait.
func (c *Cluster) abort() {
	c.aborted.Store(true)
	for _, mb := range c.mailboxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// New creates a cluster with the given configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mpsim: need at least 1 proc, got %d", cfg.Procs)
	}
	m := cfg.Machine
	if m == nil {
		m = vtime.BlueGeneP()
	}
	net := cfg.Network
	if net == nil {
		net = torus.New(cfg.Procs)
	}
	if cfg.Placement != nil && len(cfg.Placement) != cfg.Procs {
		return nil, fmt.Errorf("mpsim: placement has %d entries for %d procs", len(cfg.Placement), cfg.Procs)
	}
	c := &Cluster{
		cfg:       cfg,
		machine:   m,
		net:       net,
		fs:        NewFS(),
		placement: cfg.Placement,
	}
	c.fs.faults = cfg.Faults
	c.flows = cfg.Trace.Flows()
	c.mailboxes = make([]*mailbox, cfg.Procs)
	for i := range c.mailboxes {
		c.mailboxes[i] = newMailbox(&c.aborted)
	}
	if cfg.MaxParallel > 0 {
		c.gate = make(chan struct{}, cfg.MaxParallel)
	}
	return c, nil
}

// Procs returns the number of ranks.
func (c *Cluster) Procs() int { return c.cfg.Procs }

// Machine returns the cost profile in use.
func (c *Cluster) Machine() *vtime.Machine { return c.machine }

// Network returns the modeled interconnect.
func (c *Cluster) Network() *torus.Network { return c.net }

// FS returns the cluster's shared filesystem.
func (c *Cluster) FS() *FS { return c.fs }

// node returns the torus node a rank is placed on.
func (c *Cluster) node(rank int) int {
	if c.placement == nil {
		return rank
	}
	return c.placement[rank]
}

// Faults returns the fault plan the cluster injects, or nil.
func (c *Cluster) Faults() *fault.Plan { return c.cfg.Faults }

// Tracer returns the tracer attached to the cluster, or nil.
func (c *Cluster) Tracer() *obs.Tracer { return c.cfg.Trace }

// Run executes body once per rank, concurrently, and blocks until every
// rank returns. It returns the per-rank final clocks and all rank errors
// joined (errors.Join), so a chaos run reports every failing rank, not
// just the first. Ranks that enter different collectives, or a
// different number of them, fail with ErrCollectiveMismatch instead of
// deadlocking. Mailboxes and the collective ledger are reset before the
// run, so a Cluster can host several consecutive programs.
func (c *Cluster) Run(body func(r *Rank) error) ([]vtime.Time, error) {
	for _, mb := range c.mailboxes {
		mb.reset()
	}
	c.ledger.reset()
	c.aborted.Store(false)
	clocks := make([]vtime.Time, c.cfg.Procs)
	errs := make([]error, c.cfg.Procs)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{id: id, cluster: c, tr: c.cfg.Trace.Rank(id)}
			// The gate bounds *host* parallelism. A rank must release
			// it while blocked in Recv, otherwise held gate slots could
			// starve the sender it is waiting for; acquire/release is
			// handled inside the blocking primitives.
			r.acquire()
			defer r.release()
			errs[id] = safeBody(body, r)
			if errs[id] == nil {
				errs[id] = c.ledger.finish(id, r.collectives)
			}
			if errs[id] != nil {
				// The traffic tally localizes the failure: a rank that
				// died mid-merge shows the sends/receives it completed.
				errs[id] = fmt.Errorf("rank %d (sent %d msgs/%d B, recv %d msgs/%d B): %w",
					id, r.msgsSent, r.bytesSent, r.msgsRecv, r.bytesRecv, errs[id])
				// A failed rank will never send again: release any peer
				// blocked waiting on it rather than deadlocking the run.
				c.abort()
			}
			clocks[id] = r.clock.Now()
		}(i)
	}
	wg.Wait()
	return clocks, errors.Join(errs...)
}

func safeBody(body func(*Rank) error, r *Rank) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && errors.Is(e, ErrCollectiveMismatch) {
				err = e
				return
			}
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	return body(r)
}

// Rank is the per-process handle passed to the Run body: rank identity,
// virtual clock, messaging, collectives and filesystem access.
type Rank struct {
	id      int
	cluster *Cluster
	clock   vtime.Clock
	tr      *obs.RankTracer // nil when observability is off

	bytesSent int64
	msgsSent  int64
	bytesRecv int64
	msgsRecv  int64
	ioRetries int64
	failed    bool
	// collectives counts the public collectives this rank has entered.
	collectives int
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the cluster.
func (r *Rank) Size() int { return r.cluster.cfg.Procs }

// Machine returns the cluster's cost profile.
func (r *Rank) Machine() *vtime.Machine { return r.cluster.machine }

// Clock returns the rank's current virtual time.
func (r *Rank) Clock() vtime.Time { return r.clock.Now() }

// BytesSent returns the total payload bytes this rank has sent.
func (r *Rank) BytesSent() int64 { return r.bytesSent }

// MessagesSent returns the number of point-to-point sends issued.
func (r *Rank) MessagesSent() int64 { return r.msgsSent }

// BytesRecv returns the total payload bytes this rank has received.
func (r *Rank) BytesRecv() int64 { return r.bytesRecv }

// MessagesRecv returns the number of point-to-point receives completed.
func (r *Rank) MessagesRecv() int64 { return r.msgsRecv }

// Tracer returns this rank's span track, nil when observability is off.
// All methods of a nil *obs.RankTracer are no-ops, so callers may
// instrument unconditionally (but should gate attribute computation on
// Tracer().Enabled()).
func (r *Rank) Tracer() *obs.RankTracer { return r.tr }

// IORetries returns the number of filesystem operations this rank has
// retried after transient errors.
func (r *Rank) IORetries() int64 { return r.ioRetries }

// Checkpoint marks a named point of the rank program where the cluster's
// fault plan may crash this rank. It returns true exactly when the plan
// fires here: the rank is then considered to have lost all application
// state and restarted (the caller must discard its in-memory results),
// with the plan's restart penalty added to the virtual clock.
func (r *Rank) Checkpoint(stage string) bool {
	p := r.cluster.cfg.Faults
	if p == nil || !p.OnCheckpoint(r.id, stage, float64(r.clock.Now())) {
		return false
	}
	r.failed = true
	r.clock.Advance(vtime.Time(p.Penalty()))
	// The crash is a trace instant on the dying rank's own track, at
	// the restart-complete time, tagged with the stage that lost state.
	r.tr.Instant("fault:crash", r.clock.Now(),
		obs.S("stage", stage), obs.F("penalty_s", p.Penalty()))
	return true
}

// Failed reports whether this rank has crashed at a checkpoint during
// the current run.
func (r *Rank) Failed() bool { return r.failed }

// Compute advances the rank's clock by the modeled duration of the given
// work tally.
func (r *Rank) Compute(w vtime.Work) {
	r.clock.Advance(r.cluster.machine.ComputeTime(w))
}

// Elapse advances the rank's clock by a literal number of modeled
// seconds. The pipeline's measured-time mode uses this with real wall
// clock durations.
func (r *Rank) Elapse(seconds float64) {
	r.clock.Advance(vtime.Time(seconds))
}

// message is one in-flight point-to-point payload, or the notice that
// one is lost.
type message struct {
	src, tag int
	data     []byte
	arrival  vtime.Time
	// lost marks a loss notice: the payload for (src, tag) was dropped
	// by the fault plan or destroyed by its sender's crash, and will
	// never arrive. A notice carries no data, stamp or flow.
	lost bool
	// flow is the send-side record this delivery completes on receive;
	// the zero FlowID (observability off, sampled out) makes
	// completion a no-op.
	flow obs.FlowID
}

// mailbox holds undelivered messages for one rank, with src+tag matching.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	aborted *atomic.Bool // the owning cluster's abort flag
}

func newMailbox(aborted *atomic.Bool) *mailbox {
	mb := &mailbox{aborted: aborted}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) reset() {
	mb.mu.Lock()
	mb.pending = nil
	mb.mu.Unlock()
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.pending = append(mb.pending, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take blocks until a message or loss notice matching (src, tag) is
// pending; AnySource (-1) matches any sender. A message stamped within
// deadline is removed and returned with ok. A notice is removed and
// returned without ok; a message stamped after deadline is left pending
// and reported as message{} without ok. Every send and every loss is
// announced, so the wait needs no host-clock bound: only a cluster
// abort ends it without a match, and then take panics.
func (mb *mailbox) take(src, tag int, deadline vtime.Time) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.pending {
			if (src != AnySource && m.src != src) || m.tag != tag {
				continue
			}
			if !m.lost && m.arrival > deadline {
				return message{}, false
			}
			mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
			return m, !m.lost
		}
		if mb.aborted.Load() {
			panic(abortMessage)
		}
		mb.cond.Wait()
	}
}

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// Send delivers data to rank dst with the given tag. It is buffered
// ("eager" in MPI terms): the call returns as soon as the message is
// enqueued. The payload is not copied; callers must not mutate it after
// sending, as a real MPI program must not reuse a buffer before the
// matching receive completes.
func (r *Rank) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpsim: send to invalid rank %d (size %d)", dst, r.Size()))
	}
	m := r.cluster.machine
	hops := r.cluster.net.Hops(r.cluster.node(r.id), r.cluster.node(dst))
	transfer := m.MessageTime(len(data), hops)
	// Sender pays the injection overhead; the wire time determines the
	// arrival stamp. A faulted (dropped, corrupted, …) message costs the
	// sender exactly the same as a healthy one — the sender cannot tell.
	r.clock.Advance(vtime.Time(m.MsgLatency))
	arrival := r.clock.Now() + transfer
	r.bytesSent += int64(len(data))
	r.msgsSent++
	deliveries := []fault.Delivery{{Data: data}}
	if p := r.cluster.cfg.Faults; p != nil && tag < tagBarrierUp {
		// Collective-tag traffic is exempt: the modeled machine's
		// collective network is treated as reliable.
		deliveries = p.OnSend(r.id, dst, tag, data)
		if len(deliveries) == 0 {
			// Dropped: announce the loss, recording no flow.
			r.cluster.mailboxes[dst].put(message{src: r.id, tag: tag, lost: true})
		}
	}
	for _, d := range deliveries {
		a := arrival + vtime.Time(d.ExtraDelay)
		// One flow per delivery, so a duplicated message shows two
		// records of which only one completes.
		fid := r.cluster.flows.Begin(r.id, r.id, dst, tag, len(d.Data),
			flowKind(tag), r.clock.Now(), a)
		r.cluster.mailboxes[dst].put(message{
			src: r.id, tag: tag, data: d.Data, arrival: a, flow: fid,
		})
	}
}

// flowKind classifies a tag for flow records: collective-tag traffic
// rides the modeled reliable tree network, everything else is
// point-to-point.
func flowKind(tag int) string {
	if tag >= tagBarrierUp {
		return obs.FlowCollective
	}
	return obs.FlowP2P
}

// NoteFlow records a synthetic, already-complete flow on this rank's
// stream: data that reached the rank outside Send/Recv, such as a
// migrated block rebuilt from a dead owner's checkpoints. start is the
// rank's clock when the restore began; the flow's receive time is the
// clock now. No-op when observability is off.
func (r *Rank) NoteFlow(kind string, src, tag, bytes int, start vtime.Time) {
	r.cluster.flows.Emit(r.id, src, r.id, tag, bytes, kind, start, r.clock.Now())
}

func (r *Rank) checkSrc(src int) {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpsim: recv from invalid rank %d (size %d)", src, r.Size()))
	}
}

// Lose announces that the message this rank owed dst under tag will
// never be sent: a crash destroyed its payload. It costs no virtual time
// and records no flow. The matching receive learns of the loss at once,
// so no receive ever waits on the host clock for a message that cannot
// come.
func (r *Rank) Lose(dst, tag int) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpsim: loss notice to invalid rank %d (size %d)", dst, r.Size()))
	}
	r.cluster.mailboxes[dst].put(message{src: r.id, tag: tag, lost: true})
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload and actual source. src may be AnySource; any other
// out-of-range source panics (a matching message could never arrive).
// A matching loss notice panics too: only RecvTimeout survives a loss,
// so the rank fails and the cluster aborts.
func (r *Rank) Recv(src, tag int) ([]byte, int) {
	r.checkSrc(src)
	recvStart := r.clock.Now()
	msg, ok := r.take(src, tag, vtime.Time(math.Inf(1)))
	if !ok {
		panic(fmt.Sprintf("mpsim: message from rank %d with tag %d was lost; Recv cannot survive a loss", msg.src, tag))
	}
	r.clock.AdvanceTo(msg.arrival)
	r.clock.Advance(vtime.Time(r.cluster.machine.RecvOverhead))
	r.countRecv(len(msg.data))
	r.cluster.flows.Complete(msg.flow, recvStart, r.clock.Now())
	return msg.data, msg.src
}

// take waits in this rank's mailbox without holding a gate slot, so a
// blocked receiver cannot starve the sender it waits for. The slot is
// taken back even when the wait panics, keeping Run's release balanced.
func (r *Rank) take(src, tag int, deadline vtime.Time) (message, bool) {
	r.release()
	defer r.acquire()
	return r.cluster.mailboxes[r.id].take(src, tag, deadline)
}

// countRecv tallies one completed point-to-point receive.
func (r *Rank) countRecv(n int) {
	r.bytesRecv += int64(n)
	r.msgsRecv++
}

// RecvTimeout is Recv with a virtual-time deadline of Clock()+timeout.
// It returns ok=false — with the clock advanced to the deadline, as a
// real timed wait would leave it — when no matching message arrives in
// time: the message was dropped, delayed past the deadline, or its
// sender crashed. The outcome follows from virtual stamps and loss
// notices alone, never from host time. It is the bounded-blocking
// primitive every fault-tolerant receive path must use instead of Recv.
func (r *Rank) RecvTimeout(src, tag int, timeout vtime.Time) ([]byte, int, bool) {
	r.checkSrc(src)
	recvStart := r.clock.Now()
	deadline := recvStart + timeout
	msg, ok := r.take(src, tag, deadline)
	if !ok {
		r.clock.AdvanceTo(deadline)
		return nil, 0, false
	}
	r.clock.AdvanceTo(msg.arrival)
	r.clock.Advance(vtime.Time(r.cluster.machine.RecvOverhead))
	r.countRecv(len(msg.data))
	r.cluster.flows.Complete(msg.flow, recvStart, r.clock.Now())
	return msg.data, msg.src, true
}

func (r *Rank) acquire() {
	if r.cluster.gate != nil {
		r.cluster.gate <- struct{}{}
	}
}

func (r *Rank) release() {
	if r.cluster.gate != nil {
		<-r.cluster.gate
	}
}
