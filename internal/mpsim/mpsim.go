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
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

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
	// RecvGrace bounds the real (host) time RecvTimeout waits for a
	// message that has not been sent yet before declaring the virtual
	// deadline expired; 0 selects 2s. Messages already pending are
	// judged purely by their virtual arrival stamp, so the grace only
	// matters for messages that genuinely never arrive.
	RecvGrace time.Duration
	// Obs attaches an observability sink: a per-rank span tracer keyed
	// to virtual time plus a metrics registry (package obs). nil — the
	// default — disables all instrumentation; every hook then costs one
	// nil check, so the fault-free fast path is unaffected.
	Obs *obs.Observer
}

// Cluster is a virtual distributed-memory machine.
type Cluster struct {
	cfg     Config
	machine *vtime.Machine
	net     *torus.Network

	mailboxes []*mailbox
	fs        *FS
	placement []int // nil = identity
	grace     time.Duration

	// metrics holds the substrate's pre-resolved instruments; all nil
	// (and every update a no-op) when Config.Obs carries no registry.
	metrics clusterMetrics
	// flows records one causal record per message (DESIGN §14); nil —
	// every hook a no-op — when Config.Obs is nil.
	flows *obs.FlowRecorder

	// aborted is set when any rank's body fails, so that ranks blocked
	// in receives unwind instead of waiting forever for messages their
	// dead peer will never send (the MPI_Abort semantics).
	aborted atomic.Bool

	gate chan struct{} // nil when MaxParallel == 0
}

// abortMessage is the panic value blocked receives raise when the
// cluster aborts; safeBody converts it into a per-rank error.
const abortMessage = "cluster aborted: a peer rank failed"

// clusterMetrics pre-resolves the substrate's registry instruments once
// per cluster, so the per-message path never takes the registry lock.
// The zero value (all nil) is the disabled state.
type clusterMetrics struct {
	bytesSent    *obs.Counter
	msgsSent     *obs.Counter
	bytesRecv    *obs.Counter
	msgsRecv     *obs.Counter
	msgBytes     *obs.Histogram
	ioRetries    *obs.Counter
	recvTimeouts *obs.Counter
	crashes      *obs.Counter
}

func newClusterMetrics(reg *obs.Registry) clusterMetrics {
	if reg == nil {
		return clusterMetrics{}
	}
	return clusterMetrics{
		bytesSent:    reg.Counter("mpsim_bytes_sent_total"),
		msgsSent:     reg.Counter("mpsim_messages_sent_total"),
		bytesRecv:    reg.Counter("mpsim_bytes_recv_total"),
		msgsRecv:     reg.Counter("mpsim_messages_recv_total"),
		msgBytes:     reg.Histogram("mpsim_message_bytes"),
		ioRetries:    reg.Counter("mpsim_io_retries_total"),
		recvTimeouts: reg.Counter("mpsim_recv_timeouts_total"),
		crashes:      reg.Counter("mpsim_rank_crashes_total"),
	}
}

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
	grace := cfg.RecvGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	c := &Cluster{
		cfg:       cfg,
		machine:   m,
		net:       net,
		fs:        NewFS(),
		placement: cfg.Placement,
		grace:     grace,
	}
	c.fs.faults = cfg.Faults
	c.metrics = newClusterMetrics(cfg.Obs.Registry())
	c.flows = cfg.Obs.FlowRecorder()
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

// Obs returns the observability sink attached to the cluster, or nil.
func (c *Cluster) Obs() *obs.Observer { return c.cfg.Obs }

// Run executes body once per rank, concurrently, and blocks until every
// rank returns. It returns the per-rank final clocks and all rank errors
// joined (errors.Join), so a chaos run reports every failing rank, not
// just the first. Mailboxes are reset before the run, so a Cluster can
// host several consecutive programs.
func (c *Cluster) Run(body func(r *Rank) error) ([]vtime.Time, error) {
	for _, mb := range c.mailboxes {
		mb.reset()
	}
	c.aborted.Store(false)
	clocks := make([]vtime.Time, c.cfg.Procs)
	errs := make([]error, c.cfg.Procs)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{id: id, cluster: c, tr: c.cfg.Obs.Rank(id)}
			// The gate bounds *host* parallelism. A rank must release
			// it while blocked in Recv, otherwise held gate slots could
			// starve the sender it is waiting for; acquire/release is
			// handled inside the blocking primitives.
			r.acquire()
			defer r.release()
			errs[id] = safeBody(body, r)
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

// Metrics returns the cluster's metrics registry, nil when
// observability is off.
func (r *Rank) Metrics() *obs.Registry { return r.cluster.cfg.Obs.Registry() }

// Logger returns the cluster's structured event logger, nil when none
// is attached. Events logged through it carry a "vt" attribute so log
// lines join against trace spans on the virtual timeline; callers must
// gate on the nil return, as slog itself has no nil-receiver no-op.
func (r *Rank) Logger() *slog.Logger { return r.cluster.cfg.Obs.Logger() }

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
	if lg := r.Logger(); lg != nil {
		lg.Warn("fault.crash", "rank", r.id, "stage", stage,
			"penalty_s", p.Penalty(), "vt", float64(r.clock.Now()))
	}
	r.cluster.metrics.crashes.Add(1)
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

// ComputeParallel advances the rank's clock by the modeled duration of
// the given work tally when its data-parallel portion runs on an
// intra-rank pool of workers (vtime.ParallelComputeTime). workers <= 1
// is exactly Compute.
func (r *Rank) ComputeParallel(w vtime.Work, workers int) {
	r.clock.Advance(r.cluster.machine.ParallelComputeTime(w, workers))
}

// Elapse advances the rank's clock by a literal number of modeled
// seconds. The pipeline's measured-time mode uses this with real wall
// clock durations.
func (r *Rank) Elapse(seconds float64) {
	r.clock.Advance(vtime.Time(seconds))
}

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []byte
	arrival  vtime.Time
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

// take blocks until a message matching (src, tag) is available and
// removes it. AnySource (-1) matches any sender.
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if m, ok := mb.match(src, tag); ok {
			return m
		}
		if mb.aborted.Load() {
			panic(abortMessage)
		}
		mb.cond.Wait()
	}
}

// match removes and returns the first pending message matching
// (src, tag). Callers hold mb.mu.
func (mb *mailbox) match(src, tag int) (message, bool) {
	for i, m := range mb.pending {
		if (src == AnySource || m.src == src) && m.tag == tag {
			mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// takeDeadline is take with a bounded wait. A matching message whose
// virtual arrival stamp is within deadline is delivered; one stamped
// later is deterministically reported as a timeout (and left pending).
// When no matching message exists at all, the wait is bounded by the
// real-time grace, the escape hatch for messages that were dropped or
// whose sender crashed — a lost message can never block forever.
func (mb *mailbox) takeDeadline(src, tag int, deadline vtime.Time, grace time.Duration) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	expired := false
	//msvet:allow wallclock: the real-time grace only bounds waits for messages that never arrive; delivered messages are judged purely by virtual arrival stamps (DESIGN §8)
	timer := time.AfterFunc(grace, func() {
		mb.mu.Lock()
		expired = true
		mb.mu.Unlock()
		mb.cond.Broadcast()
	})
	defer timer.Stop()
	for {
		for i, m := range mb.pending {
			if (src == AnySource || m.src == src) && m.tag == tag {
				if m.arrival > deadline {
					return message{}, false
				}
				mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
				return m, true
			}
		}
		if expired || mb.aborted.Load() {
			return message{}, false
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
	if err := r.TrySend(dst, tag, data); err != nil {
		panic(err.Error())
	}
}

// TrySend is Send returning an error instead of panicking on an invalid
// destination, for callers that must degrade gracefully.
func (r *Rank) TrySend(dst, tag int, data []byte) error {
	if dst < 0 || dst >= r.Size() {
		return fmt.Errorf("mpsim: send to invalid rank %d (size %d)", dst, r.Size())
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
	r.cluster.metrics.bytesSent.Add(int64(len(data)))
	r.cluster.metrics.msgsSent.Add(1)
	r.cluster.metrics.msgBytes.Observe(int64(len(data)))
	deliveries := []fault.Delivery{{Data: data}}
	if p := r.cluster.cfg.Faults; p != nil && tag < tagBarrierUp {
		// Collective-tag traffic is exempt: the modeled machine's
		// collective network is treated as reliable.
		deliveries = p.OnSend(r.id, dst, tag, data)
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
	return nil
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

// Recv blocks until a message with the given source and tag arrives and
// returns its payload and actual source. src may be AnySource; any other
// out-of-range source panics (a matching message could never arrive).
func (r *Rank) Recv(src, tag int) ([]byte, int) {
	r.checkSrc(src)
	recvStart := r.clock.Now()
	r.release()
	msg := r.cluster.mailboxes[r.id].take(src, tag)
	r.acquire()
	r.clock.AdvanceTo(msg.arrival)
	r.clock.Advance(vtime.Time(r.cluster.machine.RecvOverhead))
	r.countRecv(len(msg.data))
	r.cluster.flows.Complete(msg.flow, recvStart, r.clock.Now())
	return msg.data, msg.src
}

// countRecv tallies one completed point-to-point receive.
func (r *Rank) countRecv(n int) {
	r.bytesRecv += int64(n)
	r.msgsRecv++
	r.cluster.metrics.bytesRecv.Add(int64(n))
	r.cluster.metrics.msgsRecv.Add(1)
}

// TryRecv is Recv returning an error instead of panicking on an invalid
// source.
func (r *Rank) TryRecv(src, tag int) ([]byte, int, error) {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		return nil, 0, fmt.Errorf("mpsim: recv from invalid rank %d (size %d)", src, r.Size())
	}
	data, from := r.Recv(src, tag)
	return data, from, nil
}

// RecvTimeout is Recv with a virtual-time deadline of Clock()+timeout.
// It returns ok=false — with the clock advanced to the deadline, as a
// real timed wait would leave it — when no matching message arrives in
// time: the message was dropped, delayed past the deadline, or its
// sender crashed. It is the bounded-blocking primitive every
// fault-tolerant receive path must use instead of Recv.
func (r *Rank) RecvTimeout(src, tag int, timeout vtime.Time) ([]byte, int, bool) {
	r.checkSrc(src)
	recvStart := r.clock.Now()
	deadline := recvStart + timeout
	r.release()
	msg, ok := r.cluster.mailboxes[r.id].takeDeadline(src, tag, deadline, r.cluster.grace)
	r.acquire()
	if !ok {
		r.clock.AdvanceTo(deadline)
		r.cluster.metrics.recvTimeouts.Add(1)
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
