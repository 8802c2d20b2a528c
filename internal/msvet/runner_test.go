package msvet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runModule runs the full suite over the module rooted at root with a
// fresh loader.
func runModule(t *testing.T, root string) ([]Finding, *RunStats) {
	t.Helper()
	l := NewLoader(root, "parms")
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Loader: l, Analyzers: Analyzers(), CheckAllows: true}
	findings, stats, err := r.Run(paths)
	if err != nil {
		t.Fatal(err)
	}
	return findings, stats
}

// moduleCopy clones the fixture module into a temp dir so tests can add
// and edit packages without touching the repo tree.
func moduleCopy(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	src, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// writeFile creates (or replaces) a source file inside a module copy.
func writeFile(t *testing.T, root, rel, src string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// renderFindings flattens findings to their printed form, so equality
// checks compare exactly what users see.
func renderFindings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprint(f)
	}
	return out
}

// TestSeededDeadlockModule is the end-to-end check: the self-contained
// fixture module seeds one collective mismatch that is only visible
// across two call frames and a package boundary (pipeline.Drive →
// compute.Stage → compute.ReduceAll), and a full Runner pass over the
// module must flag exactly that call site.
func TestSeededDeadlockModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	findings, stats := runModule(t, root)
	if stats.Packages != 3 {
		t.Fatalf("module has %d packages, want 3", stats.Packages)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the seeded mismatch: %v", len(findings), renderFindings(findings))
	}
	f := findings[0]
	if f.Analyzer != "spmd" {
		t.Errorf("finding analyzer = %q, want spmd", f.Analyzer)
	}
	if !strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "internal/pipeline/pipeline.go") {
		t.Errorf("finding at %s, want the pipeline call site", f.Pos.Filename)
	}
	if !strings.Contains(f.Message, "call to Stage selects between mismatched collective sequences") {
		t.Errorf("finding message %q does not name the cross-call divergence", f.Message)
	}
}

// TestFieldTaintOrderIndependent pins field taint to a module-wide
// fixpoint. Package aa declares a struct field, a sibling package
// taints it with the rank id, and package cc — which does not import
// the tainting package — branches on the field between two different
// collectives. The verdict on cc must not depend on whether the
// tainting package sorts before cc (bb) or after it (zz), and removing
// the taint must clear it in both layouts.
func TestFieldTaintOrderIndependent(t *testing.T) {
	const reader = `package cc

import (
	"parms/internal/aa"
	"parms/internal/mpsim"
)

func Diverge(r *mpsim.Rank, s *aa.State) {
	if s.Lead {
		r.Barrier()
	} else {
		r.AllreduceFloat64(1, "sum")
	}
}
`
	tainter := func(pkg, expr string) string {
		return "package " + pkg + `

import (
	"parms/internal/aa"
	"parms/internal/mpsim"
)

func Taint(r *mpsim.Rank, s *aa.State) {
	s.Lead = ` + expr + `
}
`
	}
	// ccFindings runs the module and returns the findings in cc.go,
	// rendered relative to the module root so layouts compare equal.
	ccFindings := func(root string) []string {
		findings, _ := runModule(t, root)
		var out []string
		for _, f := range findings {
			if filepath.Base(f.Pos.Filename) == "cc.go" {
				out = append(out, fmt.Sprintf("%d:%d: [%s] %s", f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message))
			}
		}
		return out
	}

	roots := map[string]string{}
	for _, pkg := range []string{"bb", "zz"} {
		root := moduleCopy(t)
		writeFile(t, root, "internal/aa/aa.go", "package aa\n\ntype State struct{ Lead bool }\n")
		writeFile(t, root, "internal/cc/cc.go", reader)
		writeFile(t, root, "internal/"+pkg+"/"+pkg+".go", tainter(pkg, "r.ID() == 0"))
		roots[pkg] = root
	}

	before, after := ccFindings(roots["bb"]), ccFindings(roots["zz"])
	if len(before) != 1 || !strings.Contains(before[0], "[spmd] rank-dependent control flow yields mismatched collective sequences") {
		t.Fatalf("tainting package sorted before the reader: got %v, want one spmd finding", before)
	}
	if strings.Join(before, "\n") != strings.Join(after, "\n") {
		t.Fatalf("verdict depends on package order:\nbb: %v\nzz: %v", before, after)
	}

	for pkg, root := range roots {
		writeFile(t, root, "internal/"+pkg+"/"+pkg+".go", tainter(pkg, "r.Size() > 1"))
		if got := ccFindings(root); len(got) != 0 {
			t.Errorf("%s: taint edited away, still %d findings in cc: %v", pkg, len(got), got)
		}
	}
}
