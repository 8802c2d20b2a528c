package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"parms/internal/vtime"
)

// Flow kinds. A flow's kind names the mechanism that moved the data:
// ordinary point-to-point traffic, collective-tag traffic (the modeled
// reliable tree network), or a migrated block restored from a dead
// owner's checkpoints.
const (
	FlowP2P             = "p2p"
	FlowCollective      = "collective"
	FlowMigratedRestore = "migrated-restore"
)

// Flow is one causal message record: who sent what to whom, when it was
// injected, when it arrived, and when the receiver actually consumed it
// — the message-granularity layer the per-rank span tracks cannot
// express (DESIGN §14). All timestamps are virtual.
type Flow struct {
	// Seq orders flows within one emitter's stream; (Emitter, Seq) is
	// the flow's identity.
	Seq     int64 `json:"seq"`
	Emitter int   `json:"emitter"`
	// Src and Dst are the logical endpoints. Src == Emitter for real
	// sends; synthetic flows (migrated-restore) are emitted by the
	// consuming rank with Src naming where the data logically came from.
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Tag   int    `json:"tag"`
	Bytes int    `json:"bytes"`
	Kind  string `json:"kind"`
	// SendVT is the sender's clock at injection (after the send
	// overhead); ArriveVT the modeled arrival at the destination
	// mailbox, fault delays included.
	SendVT   vtime.Time `json:"send"`
	ArriveVT vtime.Time `json:"arrive"`
	// RecvStartVT is the receiver's clock when it began the matching
	// receive; RecvVT its clock when the receive completed (arrival +
	// receive overhead). Valid only when Done.
	RecvStartVT vtime.Time `json:"recv_start"`
	RecvVT      vtime.Time `json:"recv"`
	// Done marks a consumed message. A flow left open at end of run is
	// an orphan: a dropped duplicate delivery, or a payload that arrived
	// after its receive timed out and stays in the mailbox forever.
	Done bool `json:"done"`
}

// WaitSeconds is the virtual time the receiver spent blocked on this
// message: the gap between starting the receive and the payload's
// arrival. Zero for messages that were already buffered (and for
// synthetic and incomplete flows).
func (f Flow) WaitSeconds() float64 {
	if !f.Done {
		return 0
	}
	w := float64(f.ArriveVT - f.RecvStartVT)
	if w < 0 {
		return 0
	}
	return w
}

// FlowBytes sums the payload bytes of the flows that crossed the
// network: every kind but FlowMigratedRestore, whose data was rebuilt
// from checkpoints rather than sent. sent counts every delivery, so a
// dropped message adds nothing and a duplicated one adds twice; recv
// counts only the consumed deliveries.
func FlowBytes(flows []Flow) (sent, recv int64) {
	for _, f := range flows {
		if f.Kind == FlowMigratedRestore {
			continue
		}
		sent += int64(f.Bytes)
		if f.Done {
			recv += int64(f.Bytes)
		}
	}
	return sent, recv
}

// FlowID is the opaque handle Begin returns so the receive side can
// complete the record. The zero FlowID is inert: Complete on it is a
// no-op, which is how count-only and disabled flows cost nothing.
type FlowID struct {
	emitter int32
	index   int32 // stream position + 1; 0 = none
}

// flowStream is one emitter's flow list. Appends happen only from that
// rank's goroutine, so stream order is deterministic; the mutex exists
// for the receive-side completion writes and for snapshot readers. The
// list is stored in fixed-size chunks, so recording allocates about
// what it keeps: a doubling slice would allocate three times the final
// size, and the flow recorder's allocation budget is measured against
// the pipeline's own.
type flowStream struct {
	mu     sync.Mutex
	seq    int64
	chunks [][]flowRec
	n      int
}

// flowRec is a Flow as its stream keeps it, in 80 bytes instead of
// 104. A recording stream numbers every record it keeps, so a record's
// Seq is its position and its Emitter the stream's rank: neither is
// stored. Ranks fit 32 bits.
type flowRec struct {
	src, dst                      int32
	tag, bytes                    int
	kind                          string
	send, arrive, recvStart, recv vtime.Time
	done                          bool
}

// flowChunk is the number of flows per chunk.
const flowChunk = 32

// add appends f and returns its position + 1.
func (st *flowStream) add(f flowRec) int32 {
	if st.n%flowChunk == 0 {
		st.chunks = append(st.chunks, make([]flowRec, 0, flowChunk))
	}
	last := &st.chunks[len(st.chunks)-1]
	*last = append(*last, f)
	st.n++
	return int32(st.n)
}

// FlowRecorder captures per-message causal flow records for a cluster
// run, one stream per emitting rank. Determinism: every stream is
// appended only by its own rank's goroutine and Flows() concatenates
// streams in rank order, so same-seed runs produce byte-identical
// snapshots no matter how the host scheduled the goroutines. All
// methods are nil-safe no-ops, like the rest of the package.
type FlowRecorder struct {
	streams   []flowStream
	countOnly atomic.Bool
}

// NewFlowRecorder creates a recorder for procs emitting ranks.
func NewFlowRecorder(procs int) *FlowRecorder {
	if procs < 0 {
		procs = 0
	}
	return &FlowRecorder{streams: make([]flowStream, procs)}
}

// Procs returns the number of emitter streams, 0 on nil.
func (fr *FlowRecorder) Procs() int {
	if fr == nil {
		return 0
	}
	return len(fr.streams)
}

// CountOnly switches the recorder to counting sends without storing
// any record, Emit included: the baseline that measures what keeping
// the records costs. Call it before the run starts.
func (fr *FlowRecorder) CountOnly() {
	if fr != nil {
		fr.countOnly.Store(true)
	}
}

// Begin records the send side of a message flow and returns the handle
// the receive side completes. Must be called from the emitting rank's
// goroutine (stream order is the determinism contract).
func (fr *FlowRecorder) Begin(emitter, src, dst, tag, bytes int, kind string, send, arrive vtime.Time) FlowID {
	if fr == nil || emitter < 0 || emitter >= len(fr.streams) {
		return FlowID{}
	}
	st := &fr.streams[emitter]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	if fr.countOnly.Load() {
		return FlowID{}
	}
	index := st.add(flowRec{
		src: int32(src), dst: int32(dst), tag: tag,
		bytes: bytes, kind: kind, send: send, arrive: arrive,
	})
	return FlowID{emitter: int32(emitter), index: index}
}

// Complete finishes a flow from the receive side: the receiver's clock
// entering the receive and after it. Values written here are pure
// virtual times, so which goroutine calls it does not affect the
// recorded bytes. Inert on the zero FlowID and on duplicates.
func (fr *FlowRecorder) Complete(id FlowID, recvStart, recv vtime.Time) {
	if fr == nil || id.index == 0 {
		return
	}
	e := int(id.emitter)
	if e < 0 || e >= len(fr.streams) {
		return
	}
	st := &fr.streams[e]
	st.mu.Lock()
	defer st.mu.Unlock()
	i := int(id.index) - 1
	if i >= st.n {
		return
	}
	f := &st.chunks[i/flowChunk][i%flowChunk]
	if f.done {
		return
	}
	f.recvStart = recvStart
	f.recv = max(recv, f.send)
	f.done = true
}

// Emit records a synthetic, already-complete flow: data that reached
// its consumer outside Send/Recv (a migrated block restored from
// checkpoints). Must be called from the emitting rank's goroutine, like
// Begin.
func (fr *FlowRecorder) Emit(emitter, src, dst, tag, bytes int, kind string, send, recv vtime.Time) {
	if fr == nil || emitter < 0 || emitter >= len(fr.streams) || fr.countOnly.Load() {
		return
	}
	if recv < send {
		recv = send
	}
	st := &fr.streams[emitter]
	st.mu.Lock()
	st.add(flowRec{
		src: int32(src), dst: int32(dst), tag: tag,
		bytes: bytes, kind: kind, send: send, arrive: recv,
		recvStart: recv, recv: recv, done: true,
	})
	st.seq++
	st.mu.Unlock()
}

// Flows snapshots every recorded flow, ordered by (emitter, seq). Safe
// to call mid-run: each stream is copied under its lock, so the result
// is a consistent prefix per emitter.
func (fr *FlowRecorder) Flows() []Flow {
	if fr == nil {
		return nil
	}
	var out []Flow
	for e := range fr.streams {
		st := &fr.streams[e]
		st.mu.Lock()
		out = slices.Grow(out, st.n)
		var seq int64
		for _, c := range st.chunks {
			for _, f := range c {
				out = append(out, Flow{
					Seq: seq, Emitter: e, Src: int(f.src), Dst: int(f.dst), Tag: f.tag,
					Bytes: f.bytes, Kind: f.kind, SendVT: f.send, ArriveVT: f.arrive,
					RecvStartVT: f.recvStart, RecvVT: f.recv, Done: f.done,
				})
				seq++
			}
		}
		st.mu.Unlock()
	}
	return out
}

// Started returns the total number of sends sequenced across all
// emitters — exact in count-only mode too, which skips recording but
// never skips the sequence counter.
func (fr *FlowRecorder) Started() int64 {
	if fr == nil {
		return 0
	}
	var n int64
	for e := range fr.streams {
		st := &fr.streams[e]
		st.mu.Lock()
		n += st.seq
		st.mu.Unlock()
	}
	return n
}

// WriteFlowsJSON dumps the recorded flows as one JSON document,
// byte-for-byte deterministic for a given recorder state: flows ascend
// by (emitter, seq), one per line.
func (fr *FlowRecorder) WriteFlowsJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"procs":`)
	bw.WriteString(strconv.Itoa(fr.Procs()))
	bw.WriteString(`,"started":`)
	bw.WriteString(strconv.FormatInt(fr.Started(), 10))
	bw.WriteString(`,"flows":[`)
	for i, f := range fr.Flows() {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
