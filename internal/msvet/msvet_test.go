package msvet

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtureLoader returns a fresh loader rooted at the real module, so
// fixtures can import parms/internal/mpsim and friends.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(root, modPath)
}

// checkFixture runs one analyzer fixture and fails on any mismatch
// between findings and the fixture's want markers.
func checkFixture(t *testing.T, dir, asPath string, analyzers []*Analyzer) {
	t.Helper()
	problems, err := CheckFixture(fixtureLoader(t), filepath.Join("testdata", dir), asPath, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// The per-analyzer regression tests. Each fixture contains both
// violations (want markers) and the neighboring legal idiom, so a
// regression in either direction — missed finding or false positive —
// fails.

func TestWallclockFixture(t *testing.T) {
	// A deterministic package path so the analyzer applies.
	checkFixture(t, "wallclock", "parms/internal/merge", []*Analyzer{WallclockAnalyzer})
}

func TestWallclockSkipsNondeterministicPackages(t *testing.T) {
	// The same fixture under a non-deterministic path must be silent:
	// experiments may seed from anything it likes.
	l := fixtureLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "wallclock"), "parms/internal/experiments")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPackage(p, []*Analyzer{WallclockAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("wallclock ran outside deterministic packages: %v", findings)
	}
}

func TestMaporderFixture(t *testing.T) {
	checkFixture(t, "maporder", "parms/internal/mscomplex", []*Analyzer{MaporderAnalyzer})
}

func TestKernelFixture(t *testing.T) {
	checkFixture(t, "kernel", "parms/internal/gradient", []*Analyzer{KernelAnalyzer})
}

func TestKernelSkipsColdPackages(t *testing.T) {
	// The same fixture outside the hot kernel packages must be silent:
	// a *Kernel-named helper elsewhere is not a hot sweep loop.
	l := fixtureLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "kernel"), "parms/internal/merge")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPackage(p, []*Analyzer{KernelAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("kernel ran outside the kernel packages: %v", findings)
	}
}

// TestCleanModule is the end-to-end multichecker test: the full suite
// over a known-clean mini-module must report nothing. If an analyzer
// breaks in the flag-everything direction this fails; if one breaks in
// the flag-nothing direction the per-analyzer fixture tests fail — so a
// broken analyzer can never pass silently.
func TestCleanModule(t *testing.T) {
	l := fixtureLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "clean"), "parms/internal/merge")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPackage(p, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("clean module flagged: %s", f)
	}
}

// TestRepoIsClean runs the full suite over every package of the module,
// exactly as `make lint` does: the repo must stay clean. This is the
// regression test that catches a new violation at `go test` time,
// before CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("module enumeration found only %d packages: %v", len(paths), paths)
	}
	findings, err := Run(l, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestAnalyzerMetadata keeps names and docs wired: names label every
// finding, so they must be stable and non-empty.
func TestAnalyzerMetadata(t *testing.T) {
	want := []string{"wallclock", "maporder", "kernel"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}

// TestModulePackagesSkipsTestdata guards the enumerator against walking
// fixtures or hidden directories into the analysis set.
func TestModulePackagesSkipsTestdata(t *testing.T) {
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("enumeration includes fixture package %s", p)
		}
	}
}
