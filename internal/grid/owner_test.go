package grid

import (
	"reflect"
	"testing"
)

func TestOwnerTableMatchesBlockCyclic(t *testing.T) {
	for _, tc := range []struct{ nblocks, procs int }{
		{1, 1}, {8, 4}, {64, 16}, {17, 5}, {3, 8},
	} {
		tab := NewOwnerTable(tc.nblocks, tc.procs)
		for b := 0; b < tc.nblocks; b++ {
			if got, want := tab.Owner(b), rankOfBlock(b, tc.procs); got != want {
				t.Fatalf("nblocks=%d procs=%d: Owner(%d)=%d, rankOfBlock=%d",
					tc.nblocks, tc.procs, b, got, want)
			}
		}
		for rank := 0; rank < tc.procs; rank++ {
			got := tab.Blocks(rank)
			want := assignBlocks(tc.nblocks, tc.procs, rank)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nblocks=%d procs=%d: Blocks(%d)=%v, assignBlocks=%v",
					tc.nblocks, tc.procs, rank, got, want)
			}
		}
		if tab.Version() != 0 {
			t.Fatalf("fresh table has version %d", tab.Version())
		}
	}
}

func TestOwnerTableAvoiding(t *testing.T) {
	tab := NewOwnerTableAvoiding(8, 4, []int{1, 3})
	for b := 0; b < 8; b++ {
		if o := tab.Owner(b); o == 1 || o == 3 {
			t.Fatalf("block %d assigned to avoided rank %d", b, o)
		}
	}
	// Cyclic over the healthy pool {0, 2}.
	want := []int{0, 2, 0, 2, 0, 2, 0, 2}
	for b, w := range want {
		if tab.Owner(b) != w {
			t.Fatalf("Owner(%d)=%d, want %d", b, tab.Owner(b), w)
		}
	}
	if !tab.Avoided(1) || !tab.Avoided(3) || tab.Avoided(0) {
		t.Fatalf("Avoided flags wrong: %v %v %v", tab.Avoided(1), tab.Avoided(3), tab.Avoided(0))
	}
	if blocks := tab.Blocks(1); len(blocks) != 0 {
		t.Fatalf("avoided rank 1 owns %v", blocks)
	}
}

func TestOwnerTableAvoidingEveryone(t *testing.T) {
	// Avoiding all ranks must fall back to the plain cyclic layout.
	tab := NewOwnerTableAvoiding(6, 3, []int{0, 1, 2})
	for b := 0; b < 6; b++ {
		if got, want := tab.Owner(b), b%3; got != want {
			t.Fatalf("Owner(%d)=%d, want %d", b, got, want)
		}
	}
	if tab.Avoided(0) {
		t.Fatal("degenerate avoid list should be discarded")
	}
}

func TestOwnerTableAvoidingOutOfRange(t *testing.T) {
	tab := NewOwnerTableAvoiding(4, 2, []int{-1, 7})
	for b := 0; b < 4; b++ {
		if got, want := tab.Owner(b), b%2; got != want {
			t.Fatalf("Owner(%d)=%d, want %d", b, got, want)
		}
	}
}

func TestOwnerTableMigrate(t *testing.T) {
	tab := NewOwnerTable(8, 4)
	if err := tab.Migrate(5, 0); err != nil {
		t.Fatal(err)
	}
	if tab.Owner(5) != 0 {
		t.Fatalf("Owner(5)=%d after migrate", tab.Owner(5))
	}
	if tab.Version() != 1 {
		t.Fatalf("version=%d after one migration", tab.Version())
	}
	if err := tab.Migrate(99, 0); err == nil {
		t.Fatal("migrating unknown block should fail")
	}
	if err := tab.Migrate(0, 12); err == nil {
		t.Fatal("migrating to unknown rank should fail")
	}
	if tab.Version() != 1 {
		t.Fatalf("failed migrations must not bump version, got %d", tab.Version())
	}
}

func TestOwnerTableMigrateFrom(t *testing.T) {
	// 16 blocks over 4 ranks, surviving set = multiples of 4 after a
	// radix-4 round: blocks 0, 4, 8, 12 owned by ranks 0, 0, 0, 0.
	tab := NewOwnerTable(16, 4)
	surviving := []int{0, 4, 8, 12}
	migs, err := tab.MigrateFrom([]int{0}, surviving)
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) != 4 {
		t.Fatalf("expected 4 migrations, got %v", migs)
	}
	// Load-based: all four orphans spread over the three healthy ranks,
	// ascending block order, ties to lowest rank id.
	want := []Migration{
		{Block: 0, From: 0, To: 1},
		{Block: 4, From: 0, To: 2},
		{Block: 8, From: 0, To: 3},
		{Block: 12, From: 0, To: 1},
	}
	if !reflect.DeepEqual(migs, want) {
		t.Fatalf("migrations = %v, want %v", migs, want)
	}
	if tab.Healthy(0) {
		t.Fatal("rank 0 should be marked failed")
	}
	if tab.Version() != 4 {
		t.Fatalf("version=%d, want 4", tab.Version())
	}
	// Replicas applying the same call reach the same state.
	other := NewOwnerTable(16, 4)
	otherMigs, err := other.MigrateFrom([]int{0}, []int{0, 4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(migs, otherMigs) {
		t.Fatal("MigrateFrom is not deterministic across replicas")
	}
	for b := 0; b < 16; b++ {
		if tab.Owner(b) != other.Owner(b) {
			t.Fatalf("replica divergence at block %d", b)
		}
	}
}

func TestOwnerTableMigrateFromBalancesLoad(t *testing.T) {
	// Rank 1 dies holding blocks 1, 5, 9; survivors 0..11 all live.
	tab := NewOwnerTable(12, 4)
	surviving := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	migs, err := tab.MigrateFrom([]int{1}, surviving)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy ranks 0, 2, 3 each already own 3 surviving blocks; the
	// three orphans go one to each, lowest rank first.
	want := []Migration{
		{Block: 1, From: 1, To: 0},
		{Block: 5, From: 1, To: 2},
		{Block: 9, From: 1, To: 3},
	}
	if !reflect.DeepEqual(migs, want) {
		t.Fatalf("migrations = %v, want %v", migs, want)
	}
}

func TestOwnerTableMigrateFromSkipsAvoided(t *testing.T) {
	tab := NewOwnerTableAvoiding(8, 4, []int{3})
	// Pool {0,1,2}; rank 0 dies. Orphans must land on 1 or 2, not 3.
	migs, err := tab.MigrateFrom([]int{0}, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range migs {
		if m.To == 3 {
			t.Fatalf("orphan migrated to avoided rank: %v", m)
		}
	}
	// But when only the avoided rank survives, it is used.
	tab2 := NewOwnerTableAvoiding(4, 3, []int{2})
	migs2, err := tab2.MigrateFrom([]int{0, 1}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range migs2 {
		if m.To != 2 {
			t.Fatalf("expected fallback to avoided rank 2, got %v", m)
		}
	}
}

func TestOwnerTableMigrateFromAllFailed(t *testing.T) {
	tab := NewOwnerTable(4, 2)
	if _, err := tab.MigrateFrom([]int{0, 1}, []int{0, 1, 2, 3}); err == nil {
		t.Fatal("expected error when every rank failed")
	}
}

func TestOwnerTableClone(t *testing.T) {
	tab := NewOwnerTableAvoiding(8, 4, []int{2})
	if err := tab.Migrate(3, 0); err != nil {
		t.Fatal(err)
	}
	c := tab.Clone()
	if c.Version() != tab.Version() || c.Owner(3) != 0 || !c.Avoided(2) {
		t.Fatal("clone does not match source")
	}
	if err := c.Migrate(3, 1); err != nil {
		t.Fatal(err)
	}
	if tab.Owner(3) != 0 {
		t.Fatal("mutating clone affected source")
	}
	c.MarkFailed(1)
	if !tab.Healthy(1) {
		t.Fatal("MarkFailed on clone leaked into source")
	}
}
