package mpsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

func TestFSReadWriteAt(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteAt("f", 4, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The gap before offset 4 is zero-filled.
	got, err := fs.ReadAt("f", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 0, 1, 2, 3}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Out-of-bounds reads fail.
	if _, err := fs.ReadAt("f", 5, 10); err == nil {
		t.Fatal("accepted out-of-bounds read")
	}
	if _, err := fs.ReadAt("missing", 0, 1); err == nil {
		t.Fatal("accepted read of missing file")
	}
}

func TestFSOverwriteAndCreate(t *testing.T) {
	fs := NewFS()
	fs.Put("f", []byte("hello world"))
	if err := fs.WriteAt("f", 6, []byte("gophe")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.Get("f")
	if string(data) != "hello gophe" {
		t.Fatalf("got %q", data)
	}
	fs.Create("f")
	if size, _ := fs.Size("f"); size != 0 {
		t.Fatalf("size %d after truncate", size)
	}
}

// TestFSNames: Names lists the files sorted. Map iteration order
// changes from call to call, so Names is called several times.
func TestFSNames(t *testing.T) {
	fs := NewFS()
	fs.Put("b", nil)
	fs.Put("a", nil)
	fs.Put("c", nil)
	for run := 0; run < 10; run++ {
		if names := fs.Names(); !slices.Equal(names, []string{"a", "b", "c"}) {
			t.Fatalf("run %d: names %v", run, names)
		}
	}
}

func TestFSImportExport(t *testing.T) {
	dir := t.TempDir()
	hostIn := filepath.Join(dir, "in.bin")
	hostOut := filepath.Join(dir, "out.bin")
	payload := []byte{9, 8, 7, 6, 5}
	if err := os.WriteFile(hostIn, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := NewFS()
	if err := fs.Import(hostIn, "vol"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Export("vol", hostOut); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(hostOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("round trip got %v", back)
	}
	if err := fs.Import(filepath.Join(dir, "nope"), "x"); err == nil {
		t.Fatal("imported missing host file")
	}
	if err := fs.Export("nope", hostOut); err == nil {
		t.Fatal("exported missing virtual file")
	}
}

func TestRecvAnySource(t *testing.T) {
	c := newCluster(t, 4)
	_, err := c.Run(func(r *Rank) error {
		if r.ID() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, src := r.Recv(AnySource, 5)
				if len(data) != src {
					return fmt.Errorf("payload from %d has length %d", src, len(data))
				}
				if seen[src] {
					return fmt.Errorf("duplicate source %d", src)
				}
				seen[src] = true
			}
			return nil
		}
		r.Send(0, 5, make([]byte, r.ID()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFSRemove(t *testing.T) {
	fs := NewFS()
	fs.Put("a", []byte("hello"))
	n, ok := fs.Remove("a")
	if !ok || n != 5 {
		t.Fatalf("Remove(a) = (%d, %v), want (5, true)", n, ok)
	}
	if _, err := fs.Get("a"); err == nil {
		t.Fatal("file still readable after Remove")
	}
	if _, ok := fs.Remove("a"); ok {
		t.Fatal("second Remove reported the file present")
	}
}

// TestFSSetSize: SetSize grows a file to the new length, zero-filled —
// also over bytes a truncated file once held — and never shrinks one.
func TestFSSetSize(t *testing.T) {
	fs := NewFS()
	fs.Put("f", []byte("stale bytes"))
	fs.Create("f")
	fs.SetSize("f", 8)
	if size, _ := fs.Size("f"); size != 8 {
		t.Fatalf("size %d after SetSize(8)", size)
	}
	if got, _ := fs.Get("f"); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unwritten bytes read %q, want zeros", got)
	}
	if err := fs.WriteAt("f", 2, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	fs.SetSize("f", 3)
	if got, _ := fs.Get("f"); !bytes.Equal(got, []byte{0, 0, 'a', 'b', 0, 0, 0, 0}) {
		t.Fatalf("SetSize(3) on an 8-byte file left %q, want it unchanged", got)
	}
	fs.SetSize("new", 4)
	if size, err := fs.Size("new"); err != nil || size != 4 {
		t.Fatalf("SetSize of a missing file: size %d, err %v; want 4, nil", size, err)
	}
}

// TestWriteAtSizedFileAllocsNothing: a write inside a file SetSize has
// sized stores in place. Measured: 0 allocations per write; budget 0,
// so there is no headroom to give.
func TestWriteAtSizedFileAllocsNothing(t *testing.T) {
	fs := NewFS()
	fs.SetSize("f", 1<<20)
	piece := bytes.Repeat([]byte{7}, 4096)
	runtime.GC()
	runtime.GC()
	off := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		if err := fs.WriteAt("f", off, piece); err != nil {
			t.Fatal(err)
		}
		off += int64(len(piece))
	})
	if allocs != 0 {
		t.Fatalf("WriteAt inside a sized file made %.1f allocations per write, want 0", allocs)
	}
	if size, _ := fs.Size("f"); size != 1<<20 {
		t.Fatalf("size %d after writes inside the sized file, want %d", size, 1<<20)
	}
}

func TestRankRemoveFileNoClockCharge(t *testing.T) {
	c, err := New(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.FS().Put("x", []byte{1, 2, 3})
	_, err = c.Run(func(r *Rank) error {
		before := r.Clock()
		n, ok := r.RemoveFile("x")
		if !ok || n != 3 {
			t.Errorf("RemoveFile = (%d, %v), want (3, true)", n, ok)
		}
		if r.Clock() != before {
			t.Errorf("RemoveFile charged the clock: %v -> %v", before, r.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
