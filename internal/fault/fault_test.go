package fault

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	d := p.OnSend(0, 1, 7, []byte{1, 2, 3})
	if len(d) != 1 || !bytes.Equal(d[0].Data, []byte{1, 2, 3}) || d[0].ExtraDelay != 0 {
		t.Fatalf("nil plan altered delivery: %+v", d)
	}
	if p.OnCheckpoint(0, "compute", 0) {
		t.Fatal("nil plan crashed a rank")
	}
	if err := p.OnFS(FSWrite, "x"); err != nil {
		t.Fatal(err)
	}
	if p.Penalty() != 0 || p.Injected() != nil {
		t.Fatal("nil plan has state")
	}
}

func TestTargetedMessageRules(t *testing.T) {
	p := NewPlan(1).
		DropMessage(3, 0, 2).
		DuplicateMessage(1, 0, 1).
		DelayMessage(2, 0, 1, 5.0).
		CorruptMessage(4, 0, 1)

	// Unrelated traffic passes.
	if d := p.OnSend(5, 6, 0, []byte("ok")); len(d) != 1 || string(d[0].Data) != "ok" {
		t.Fatalf("unrelated message altered: %+v", d)
	}
	// First 3→0 message passes, second is dropped, third passes.
	if d := p.OnSend(3, 0, 0, []byte("a")); len(d) != 1 {
		t.Fatalf("first 3->0 message: %+v", d)
	}
	if d := p.OnSend(3, 0, 0, []byte("b")); len(d) != 0 {
		t.Fatalf("second 3->0 message not dropped: %+v", d)
	}
	if d := p.OnSend(3, 0, 0, []byte("c")); len(d) != 1 {
		t.Fatalf("third 3->0 message: %+v", d)
	}
	// Duplicate.
	if d := p.OnSend(1, 0, 0, []byte("dup")); len(d) != 2 {
		t.Fatalf("1->0 not duplicated: %+v", d)
	}
	// Delay.
	d := p.OnSend(2, 0, 0, []byte("slow"))
	if len(d) != 1 || d[0].ExtraDelay != 5.0 {
		t.Fatalf("2->0 not delayed: %+v", d)
	}
	// Corrupt: payload differs, original untouched.
	orig := []byte("payload-payload-payload")
	d = p.OnSend(4, 0, 0, orig)
	if len(d) != 1 || bytes.Equal(d[0].Data, orig) {
		t.Fatalf("4->0 not corrupted: %+v", d)
	}
	if string(orig) != "payload-payload-payload" {
		t.Fatal("corruption mutated the caller's buffer")
	}
	if len(p.Injected()) != 4 {
		t.Fatalf("injection log: %v", p.Injected())
	}
}

func TestCorruptAlwaysDiffers(t *testing.T) {
	p := NewPlan(42)
	payload := make([]byte, 64)
	for i := 0; i < 500; i++ {
		p.CorruptMessage(0, 1, 0) // every message
		d := p.OnSend(0, 1, 0, payload)
		if len(d) != 1 || bytes.Equal(d[0].Data, payload) {
			t.Fatalf("iteration %d: corruption produced identical payload", i)
		}
	}
	if d := NewPlan(7).CorruptMessage(0, 1, 1).OnSend(0, 1, 0, nil); len(d) != 1 || len(d[0].Data) == 0 {
		t.Fatalf("empty payload corruption: %+v", d)
	}
}

func TestCrashRules(t *testing.T) {
	p := NewPlan(1).CrashRank(2, "compute").CrashRankAfter(3, "", 10.0)
	if p.OnCheckpoint(2, "read", 0) {
		t.Fatal("crashed at wrong stage")
	}
	if !p.OnCheckpoint(2, "compute", 1.0) {
		t.Fatal("did not crash at compute")
	}
	if p.OnCheckpoint(2, "compute", 2.0) {
		t.Fatal("crash rule fired twice")
	}
	if p.OnCheckpoint(3, "merge:0", 5.0) {
		t.Fatal("crashed before its virtual time")
	}
	if !p.OnCheckpoint(3, "merge:1", 11.0) {
		t.Fatal("did not crash after its virtual time")
	}
	p.RestartPenalty(2.5)
	if p.Penalty() != 2.5 {
		t.Fatal("penalty not stored")
	}
}

func TestFSRules(t *testing.T) {
	p := NewPlan(1).FailWrite("out", 2).FailRead("", 1)
	// First two writes to "out" fail transiently, then succeed.
	for i := 0; i < 2; i++ {
		err := p.OnFS(FSWrite, "out")
		if !IsTransient(err) {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := p.OnFS(FSWrite, "out"); err != nil {
		t.Fatalf("third write: %v", err)
	}
	if err := p.OnFS(FSWrite, "other"); err != nil {
		t.Fatalf("unmatched file: %v", err)
	}
	// Any-file read rule fires once.
	if err := p.OnFS(FSRead, "whatever"); !IsTransient(err) {
		t.Fatal("read rule did not fire")
	}
	if err := p.OnFS(FSRead, "whatever"); err != nil {
		t.Fatalf("read rule fired twice: %v", err)
	}
	// Permanent failure.
	perm := NewPlan(1).FailRead("dead", -1)
	for i := 0; i < 3; i++ {
		err := perm.OnFS(FSRead, "dead")
		if err == nil || IsTransient(err) {
			t.Fatalf("permanent failure %d: %v", i, err)
		}
	}
	wrapped := fmt.Errorf("outer: %w", &FSError{Op: FSWrite, Name: "x", Transient: true})
	if !IsTransient(wrapped) {
		t.Fatal("IsTransient does not unwrap")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("IsTransient matched a plain error")
	}
}

func TestReportNormalize(t *testing.T) {
	a := &Report{RankCrashes: 1, Timeouts: 2, Corruptions: 1, Recomputes: 2, IORetries: 4,
		RestoredBlocks: []int{5, 3, 3, 9}, RecoveredBlocks: []int{3, 9, 5}}
	a.Normalize()
	if a.RankCrashes != 1 || a.Timeouts != 2 || a.Corruptions != 1 || a.Recomputes != 2 || a.IORetries != 4 {
		t.Fatalf("counts: %s", a)
	}
	if fmt.Sprint(a.RestoredBlocks) != "[3 5 9]" || fmt.Sprint(a.RecoveredBlocks) != "[3 5 9]" {
		t.Fatalf("blocks: %s", a)
	}
	if !a.Faulty() {
		t.Fatal("non-empty report not Faulty")
	}
	if (&Report{}).Faulty() {
		t.Fatal("empty report Faulty")
	}
	if !strings.Contains(a.String(), "restored=[3 5 9]") {
		t.Fatalf("String: %s", a)
	}
}

func TestDropProbabilityIsSeeded(t *testing.T) {
	outcomes := func(seed int64) []bool {
		p := NewPlan(seed).DropProbability(0.5)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, len(p.OnSend(0, 1, 0, nil)) == 0)
		}
		return out
	}
	a, b := outcomes(11), outcomes(11)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different outcomes")
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == 64 {
		t.Fatalf("degenerate drop count %d", drops)
	}
}

func TestCorruptReadRule(t *testing.T) {
	p := NewPlan(3).CorruptRead("ckpt/a", 2)
	stored := []byte("checkpoint payload bytes, checksummed by the reader")
	// Corrupt rules never fail the operation itself.
	if err := p.OnFS(FSRead, "ckpt/a"); err != nil {
		t.Fatalf("corrupt rule failed the read: %v", err)
	}
	// The first two reads come back damaged; the stored bytes are
	// untouched and later reads are clean.
	for i := 0; i < 2; i++ {
		got := p.OnFSRead("ckpt/a", append([]byte(nil), stored...))
		if bytes.Equal(got, stored) {
			t.Fatalf("read %d not corrupted", i)
		}
		if len(got) != len(stored) {
			t.Fatalf("read %d resized: %d != %d", i, len(got), len(stored))
		}
	}
	if got := p.OnFSRead("ckpt/a", append([]byte(nil), stored...)); !bytes.Equal(got, stored) {
		t.Fatal("rule still firing past its count")
	}
	// Other files are unaffected.
	q := NewPlan(3).CorruptRead("ckpt/a", -1)
	if got := q.OnFSRead("other", append([]byte(nil), stored...)); !bytes.Equal(got, stored) {
		t.Fatal("rule matched the wrong file")
	}
	// times < 0 corrupts every read.
	for i := 0; i < 4; i++ {
		if got := q.OnFSRead("ckpt/a", append([]byte(nil), stored...)); bytes.Equal(got, stored) {
			t.Fatalf("permanent corrupt rule missed read %d", i)
		}
	}
	// A nil plan passes data through untouched.
	var nilPlan *Plan
	if got := nilPlan.OnFSRead("x", stored); !bytes.Equal(got, stored) {
		t.Fatal("nil plan mutated data")
	}
}
