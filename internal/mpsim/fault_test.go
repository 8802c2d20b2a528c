package mpsim

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"parms/internal/fault"
	"parms/internal/obs"
	"parms/internal/vtime"
)

func TestRecvInvalidSourcePanics(t *testing.T) {
	c, _ := New(Config{Procs: 2})
	_, err := c.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(7, 0) // rank 7 does not exist: must panic, not block forever
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "recv from invalid rank 7") {
		t.Fatalf("Recv from out-of-range source: %v", err)
	}
}

func TestTrySendInvalidDestination(t *testing.T) {
	c, _ := New(Config{Procs: 2})
	_, err := c.Run(func(r *Rank) error {
		r.Send(99, 0, nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "send to invalid rank 99") {
		t.Fatalf("Send to out-of-range destination: %v", err)
	}
}

func TestRunJoinsAllRankErrors(t *testing.T) {
	c, _ := New(Config{Procs: 4})
	e1, e3 := errors.New("boom one"), errors.New("boom three")
	_, err := c.Run(func(r *Rank) error {
		switch r.ID() {
		case 1:
			return e1
		case 3:
			return e3
		}
		return nil
	})
	if !errors.Is(err, e1) || !errors.Is(err, e3) {
		t.Fatalf("joined error misses a rank: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "rank 3") {
		t.Fatalf("joined error lacks rank context: %v", err)
	}
}

func TestRecvTimeoutDroppedMessage(t *testing.T) {
	plan := fault.NewPlan(1).DropMessage(1, 0, 1)
	c, _ := New(Config{Procs: 2, Faults: plan})
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(func(r *Rank) error {
			if r.ID() == 1 {
				r.Send(0, 5, []byte("lost"))
				r.Send(0, 6, []byte("kept"))
				return nil
			}
			if _, _, ok := r.RecvTimeout(1, 5, 0.5); ok {
				t.Error("received a dropped message")
			}
			if r.Clock() < 0.5 {
				t.Errorf("timeout did not advance clock to deadline: %v", r.Clock())
			}
			data, _, ok := r.RecvTimeout(1, 6, 0.5)
			if !ok || string(data) != "kept" {
				t.Errorf("undropped message lost: %q ok=%v", data, ok)
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dropped message caused a hang")
	}
	if inj := plan.Injected(); len(inj) != 1 || !strings.Contains(inj[0], "drop") {
		t.Fatalf("injection log: %v", inj)
	}
}

// runWithin runs body on c under a 10 s host-time watchdog: a lost
// message may fail a run, never hang it.
func runWithin(t *testing.T, c *Cluster, body func(*Rank) error) ([]vtime.Time, error) {
	t.Helper()
	type outcome struct {
		clocks []vtime.Time
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		clocks, err := c.Run(body)
		done <- outcome{clocks, err}
	}()
	select {
	case o := <-done:
		return o.clocks, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("run hung")
		return nil, nil
	}
}

// TestRecvTimeoutWaitsForSlowSender: a healthy sender that is slow in
// host time is never read as lost. Only virtual stamps decide, so the
// receive succeeds and the receiver's clock is the same in every run.
func TestRecvTimeoutWaitsForSlowSender(t *testing.T) {
	var clocks [2]vtime.Time
	for run := range clocks {
		c, _ := New(Config{Procs: 2})
		_, err := runWithin(t, c, func(r *Rank) error {
			if r.ID() == 1 {
				time.Sleep(300 * time.Millisecond)
				r.Send(0, 5, []byte("slow"))
				return nil
			}
			data, _, ok := r.RecvTimeout(1, 5, 1.0)
			if !ok || string(data) != "slow" {
				t.Errorf("run %d: slow sender read as lost: %q ok=%v", run, data, ok)
			}
			clocks[run] = r.Clock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("receiver clock differs between runs: %v vs %v", clocks[0], clocks[1])
	}
}

// TestRecvTimeoutLossNotice: an announced loss times out at once, with
// the clock exactly at the deadline and no flow recorded.
func TestRecvTimeoutLossNotice(t *testing.T) {
	tr := obs.NewTracer(2)
	c, _ := New(Config{Procs: 2, Trace: tr})
	start := time.Now()
	clocks, err := runWithin(t, c, func(r *Rank) error {
		if r.ID() == 1 {
			r.Lose(0, 5)
			return nil
		}
		if _, _, ok := r.RecvTimeout(1, 5, 0.5); ok {
			t.Error("received a lost message")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("loss took %v of host time to detect", elapsed)
	}
	if clocks[0] != 0.5 {
		t.Errorf("receiver clock %v, want the deadline 0.5", clocks[0])
	}
	if n := tr.Flows().Started(); n != 0 {
		t.Errorf("%d flows recorded for a lost message", n)
	}
}

// TestRecvFailsOnLoss: a plain Recv cannot survive a loss, so matching
// a notice fails the run with an error naming source and tag, also
// when a gate bounds host parallelism.
func TestRecvFailsOnLoss(t *testing.T) {
	for _, maxPar := range []int{0, 1} {
		plan := fault.NewPlan(1).DropMessage(1, 0, 1)
		c, _ := New(Config{Procs: 3, Faults: plan, MaxParallel: maxPar})
		_, err := runWithin(t, c, func(r *Rank) error {
			switch r.ID() {
			case 0:
				r.Recv(1, 5)
			case 1:
				r.Send(0, 5, []byte("dropped"))
			case 2:
				r.Recv(0, 9) // never sent: unwinds through the abort
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "message from rank 1 with tag 5 was lost") {
			t.Fatalf("MaxParallel %d: plain Recv of a dropped message: %v", maxPar, err)
		}
	}
}

func TestRecvTimeoutLateMessageIsDeterministic(t *testing.T) {
	// A message delayed beyond the virtual deadline is a timeout even
	// though it is physically present in the mailbox.
	plan := fault.NewPlan(1).DelayMessage(1, 0, 1, 10.0)
	c, _ := New(Config{Procs: 2, Faults: plan})
	_, err := c.Run(func(r *Rank) error {
		if r.ID() == 1 {
			r.Send(0, 5, []byte("late"))
		}
		r.Barrier() // ensure the message is enqueued before the deadline check
		if r.ID() == 0 {
			if _, _, ok := r.RecvTimeout(1, 5, 0.25); ok {
				t.Error("accepted a message past its virtual deadline")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAndDelayDelivery(t *testing.T) {
	plan := fault.NewPlan(1).DuplicateMessage(1, 0, 1)
	c, _ := New(Config{Procs: 2, Faults: plan})
	_, err := c.Run(func(r *Rank) error {
		if r.ID() == 1 {
			r.Send(0, 5, []byte("twice"))
			return nil
		}
		a, _, ok1 := r.RecvTimeout(1, 5, 1.0)
		b, _, ok2 := r.RecvTimeout(1, 5, 1.0)
		if !ok1 || !ok2 || string(a) != "twice" || string(b) != "twice" {
			t.Errorf("duplicate delivery: %q/%v %q/%v", a, ok1, b, ok2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedSendLeavesOriginalIntact(t *testing.T) {
	plan := fault.NewPlan(3).CorruptMessage(1, 0, 1)
	c, _ := New(Config{Procs: 2, Faults: plan})
	orig := []byte("the quick brown fox jumps over the lazy dog")
	_, err := c.Run(func(r *Rank) error {
		if r.ID() == 1 {
			r.Send(0, 5, orig)
			return nil
		}
		got, _ := r.Recv(1, 5)
		if bytes.Equal(got, orig) {
			t.Error("payload not corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != "the quick brown fox jumps over the lazy dog" {
		t.Fatal("sender's buffer mutated")
	}
}

func TestCollectivesExemptFromFaults(t *testing.T) {
	// Even a plan dropping every point-to-point message must not break
	// collectives, which model the reliable collective network.
	plan := fault.NewPlan(1).DropProbability(1.0)
	c, _ := New(Config{Procs: 8, Faults: plan})
	_, err := c.Run(func(r *Rank) error {
		if got := r.AllreduceFloat64(1, "sum"); got != 8 {
			t.Errorf("allreduce under total message loss: %v", got)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCrash(t *testing.T) {
	plan := fault.NewPlan(1).CrashRank(1, "compute").RestartPenalty(3.0)
	c, _ := New(Config{Procs: 2, Faults: plan})
	_, err := c.Run(func(r *Rank) error {
		if r.Checkpoint("read") {
			t.Errorf("rank %d crashed at read", r.ID())
		}
		before := r.Clock()
		crashed := r.Checkpoint("compute")
		if r.ID() == 1 {
			if !crashed || !r.Failed() {
				t.Error("rank 1 did not crash at compute")
			}
			if r.Clock()-before < 3.0 {
				t.Errorf("restart penalty not charged: %v", r.Clock()-before)
			}
		} else if crashed || r.Failed() {
			t.Errorf("rank %d crashed unexpectedly", r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTripAndCorruptionDetection(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc123"), 100)}
	for _, p := range payloads {
		f := Frame(p)
		back, err := Unframe(f)
		if err != nil {
			t.Fatalf("round trip len=%d: %v", len(p), err)
		}
		if !bytes.Equal(back, p) && len(p) > 0 {
			t.Fatalf("round trip altered payload")
		}
	}
	f := Frame([]byte("hello, world"))
	for i := range f {
		bad := append([]byte(nil), f...)
		bad[i] ^= 0x40
		if _, err := Unframe(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	for _, n := range []int{0, 1, 7, len(f) - 1} {
		if _, err := Unframe(f[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	if _, err := Unframe(append(append([]byte(nil), f...), 0)); err == nil {
		t.Fatal("padded frame accepted")
	}
}

// TestSealMatchesFrame: a payload built behind FrameHeader reserved
// bytes and sealed in place is the frame Frame builds by copying.
func TestSealMatchesFrame(t *testing.T) {
	for _, p := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc123"), 100)} {
		sealed := Seal(append(make([]byte, FrameHeader), p...))
		if want := Frame(p); !bytes.Equal(sealed, want) {
			t.Fatalf("len=%d: sealed %x, framed %x", len(p), sealed, want)
		}
	}
}

func TestCollectiveIORetries(t *testing.T) {
	plan := fault.NewPlan(1).FailWrite("out", 2).FailRead("out", 1)
	c, _ := New(Config{Procs: 1, Faults: plan})
	_, err := c.Run(func(r *Rank) error {
		if err := r.CollectiveWrite("out", 0, []byte("payload")); err != nil {
			return err
		}
		data, err := r.CollectiveRead("out", 0, 7)
		if err != nil {
			return err
		}
		if string(data) != "payload" {
			t.Errorf("read back %q", data)
		}
		if r.IORetries() != 3 {
			t.Errorf("IORetries = %d, want 3", r.IORetries())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveWritePermanentFailure(t *testing.T) {
	plan := fault.NewPlan(1).FailWrite("out", -1)
	c, _ := New(Config{Procs: 1, Faults: plan})
	_, err := c.Run(func(r *Rank) error {
		return r.CollectiveWrite("out", 0, []byte("doomed"))
	})
	if err == nil || fault.IsTransient(err) {
		t.Fatalf("permanent write failure: %v", err)
	}
}

func TestChaosAbortUnblocksPeers(t *testing.T) {
	// A rank that fails mid-program must not leave peers blocked in
	// receives forever: the cluster aborts and every blocked rank
	// unwinds with an error.
	c, _ := New(Config{Procs: 3})
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(func(r *Rank) error {
			if r.ID() == 0 {
				return errors.New("early exit")
			}
			r.Recv(0, 1) // rank 0 never sends this
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "early exit") {
			t.Fatalf("missing root cause: %v", err)
		}
		if !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("blocked peers not reported as aborted: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer failure caused a hang")
	}
}

func TestRecvTimeoutAcceptsTimelyMessage(t *testing.T) {
	c, _ := New(Config{Procs: 2})
	clocks, err := c.Run(func(r *Rank) error {
		if r.ID() == 1 {
			r.Send(0, 5, []byte("on time"))
			return nil
		}
		data, from, ok := r.RecvTimeout(1, 5, vtime.Time(1.0))
		if !ok || from != 1 || string(data) != "on time" {
			t.Errorf("timely receive failed: %q from=%d ok=%v", data, from, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The receiver's clock must reflect the arrival, not the deadline.
	if clocks[0] >= 1.0 {
		t.Fatalf("receiver clock jumped to deadline: %v", clocks[0])
	}
}
