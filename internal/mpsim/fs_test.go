package mpsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

func TestFSNames(t *testing.T) {
	fs := NewFS()
	fs.Put("b", nil)
	fs.Put("a", nil)
	fs.Put("c", nil)
	names := fs.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names %v", names)
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
