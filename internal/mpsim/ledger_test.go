package mpsim

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The seeded-deadlock shape: a rank-derived flag handed two frames
// down into a collective only rank 0 enters. Every frame is legal on
// its own; the divergence exists only across the calls.
func drive(r *Rank, x float64) float64 {
	lead := r.ID() == 0
	return stage(r, lead, x)
}

func stage(r *Rank, lead bool, x float64) float64 {
	if lead {
		return reduceAll(r, x)
	}
	return x
}

func reduceAll(r *Rank, x float64) float64 {
	return r.AllreduceFloat64(x, "max") // @reduce
}

// await blocks the calling rank until the run's ledger satisfies cond,
// which pins the arrival order a case needs.
func await(c *Cluster, cond func(l *ledger) bool) {
	for {
		c.ledger.mu.Lock()
		ok := cond(&c.ledger)
		c.ledger.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func entered(n int) func(*ledger) bool {
	return func(l *ledger) bool { return len(l.entries) >= n }
}

func returned(l *ledger) bool { return l.done >= 0 }

// everyCollective calls each public collective once, including those
// built on others (AllgatherInt64 on Gather, the I/O collectives and
// AllreduceMaxTime on the allreduce).
func everyCollective(r *Rank) error {
	r.Barrier()
	r.Bcast(1, []byte{1})
	r.AllreduceFloat64(1, "sum")
	r.AllreduceMaxTime()
	r.Gather(2, []byte{2})
	r.AllgatherInt64(3)
	if err := r.CollectiveWrite("f", int64(r.ID()), []byte{4}); err != nil {
		return err
	}
	if _, err := r.CollectiveRead("f", int64(r.ID()), 1); err != nil {
		return err
	}
	r.IOAccount(5)
	return nil
}

// sites maps each "// @name" marker in this file to its file:line, the
// form the ledger's errors name call sites in.
func sites(t *testing.T) *strings.Replacer {
	t.Helper()
	src, err := os.ReadFile("ledger_test.go")
	if err != nil {
		t.Fatal(err)
	}
	marker := regexp.MustCompile(`// (@\w+)$`)
	var pairs []string
	for i, line := range strings.Split(string(src), "\n") {
		if m := marker.FindStringSubmatch(line); m != nil {
			pairs = append(pairs, m[1], fmt.Sprintf("ledger_test.go:%d", i+1))
		}
	}
	return strings.NewReplacer(pairs...)
}

// TestCollectiveLedger drives the ledger through every way ranks can
// disagree about their collectives, in both arrival orders, and
// through programs that agree. Each run is under a watchdog, so a
// regression fails instead of hanging.
func TestCollectiveLedger(t *testing.T) {
	type program func(c *Cluster, r *Rank) error
	cases := []struct {
		name  string
		procs int
		// runs execute one after another on the same cluster; all but
		// the last must pass.
		runs []program
		// want lists substrings of the last run's error ("@name" is the
		// marked call site); nil means it must pass.
		want []string
		// entries, when nonzero, is the ledger length after a passing
		// run: one per public collective, nested ones not counted.
		entries int
	}{
		{
			name: "seeded shape, diverging rank first", procs: 4,
			runs: []program{func(c *Cluster, r *Rank) error {
				if r.ID() != 0 {
					await(c, entered(1))
				}
				drive(r, 1)
				return nil
			}},
			want: []string{"collective #0: rank ", "returned after 0 collective(s), but rank 0 entered AllreduceFloat64 at @reduce"},
		},
		{
			name: "seeded shape, diverging rank last", procs: 4,
			runs: []program{func(c *Cluster, r *Rank) error {
				if r.ID() == 0 {
					await(c, returned)
				}
				drive(r, 1)
				return nil
			}},
			want: []string{"collective #0: rank 0 entered AllreduceFloat64 at @reduce, but rank ", "returned after 0 collective(s)"},
		},
		{
			name: "kind mismatch, Barrier first", procs: 3,
			runs: []program{func(c *Cluster, r *Rank) error {
				r.AllreduceMaxTime()
				if r.ID() == 1 {
					await(c, entered(2))
					r.Bcast(0, nil) // @kindBcast1
				} else {
					r.Barrier() // @kindBarrier1
				}
				return nil
			}},
			want: []string{"collective #1: rank 1 entered Bcast(root 0) at @kindBcast1, but rank ", "entered Barrier at @kindBarrier1"},
		},
		{
			name: "kind mismatch, Barrier last", procs: 3,
			runs: []program{func(c *Cluster, r *Rank) error {
				r.AllreduceMaxTime()
				if r.ID() == 1 {
					r.Bcast(0, nil) // @kindBcast2
				} else {
					await(c, entered(2))
					r.Barrier() // @kindBarrier2
				}
				return nil
			}},
			want: []string{"collective #1: rank ", "entered Barrier at @kindBarrier2, but rank 1 entered Bcast(root 0) at @kindBcast2"},
		},
		{
			// Neither op has a root, so only the op comparison sees it.
			name: "kind mismatch, no roots", procs: 2,
			runs: []program{func(c *Cluster, r *Rank) error {
				if r.ID() == 1 {
					await(c, entered(1))
					r.AllreduceFloat64(1, "sum") // @kindReduce
				} else {
					r.Barrier() // @kindBarrier3
				}
				return nil
			}},
			want: []string{"collective #0: rank 1 entered AllreduceFloat64 at @kindReduce, but rank 0 entered Barrier at @kindBarrier3"},
		},
		{
			name: "root mismatch, root 0 first", procs: 2,
			runs: []program{func(c *Cluster, r *Rank) error {
				if r.ID() == 1 {
					await(c, entered(1))
					r.Bcast(1, []byte{1}) // @rootA1
				} else {
					r.Bcast(0, []byte{0}) // @rootA0
				}
				return nil
			}},
			want: []string{"collective #0: rank 1 entered Bcast(root 1) at @rootA1, but rank 0 entered Bcast(root 0) at @rootA0"},
		},
		{
			name: "root mismatch, root 0 last", procs: 2,
			runs: []program{func(c *Cluster, r *Rank) error {
				if r.ID() == 0 {
					await(c, entered(1))
					r.Bcast(0, []byte{0}) // @rootB0
				} else {
					r.Bcast(1, []byte{1}) // @rootB1
				}
				return nil
			}},
			want: []string{"collective #0: rank 0 entered Bcast(root 0) at @rootB0, but rank 1 entered Bcast(root 1) at @rootB1"},
		},
		{
			name: "uniform program", procs: 4,
			runs:    []program{func(_ *Cluster, r *Rank) error { return everyCollective(r) }},
			entries: 9,
		},
		{
			// The second program would mismatch the first's ledger at
			// #0 if Run did not reset it.
			name: "consecutive runs", procs: 3,
			runs: []program{
				func(_ *Cluster, r *Rank) error { r.Barrier(); return nil },
				func(_ *Cluster, r *Rank) error { return everyCollective(r) },
			},
			entries: 9,
		},
	}
	site := sites(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.procs)
			var err error
			for i, prog := range tc.runs {
				done := make(chan error, 1)
				go func() {
					_, err := c.Run(func(r *Rank) error { return prog(c, r) })
					done <- err
				}()
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("run %d hung", i)
				}
				if err != nil && i < len(tc.runs)-1 {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				if tc.entries != 0 && len(c.ledger.entries) != tc.entries {
					t.Fatalf("ledger holds %d collectives, want %d", len(c.ledger.entries), tc.entries)
				}
				return
			}
			if !errors.Is(err, ErrCollectiveMismatch) {
				t.Fatalf("got %v, want ErrCollectiveMismatch", err)
			}
			for _, w := range tc.want {
				if w = site.Replace(w); !strings.Contains(err.Error(), w) {
					t.Errorf("error lacks %q:\n%v", w, err)
				}
			}
		})
	}
}
