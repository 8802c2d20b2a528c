package msvet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the parms module plus their
// standard-library dependencies entirely from source — no module proxy,
// no export data, no go command. Module-local import paths resolve
// under the module root; everything else resolves under GOROOT/src.
// Test files are never loaded: the invariants guard the simulated
// production paths, and the chaos tests legitimately use real time for
// hang guards. Each package is loaded once; a nil entry marks a load
// in progress, which a recursive request for the same path turns into
// an import-cycle error.
type Loader struct {
	Fset    *token.FileSet
	ctx     build.Context
	modRoot string
	modPath string
	pkgs    map[string]*loadEntry
}

type loadEntry struct {
	p   *Package
	err error
}

// NewLoader creates a loader rooted at the module directory.
func NewLoader(modRoot, modPath string) *Loader {
	ctx := build.Default
	// Pure-Go variants only: type information is all we need, and the
	// cgo-free build of every stdlib dependency type-checks offline.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ctx:     ctx,
		modRoot: modRoot,
		modPath: modPath,
		pkgs:    map[string]*loadEntry{},
	}
}

// ModuleRoot walks up from dir to the directory holding go.mod and
// returns it with the module path parsed from the first module line.
func ModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("msvet: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("msvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// dirOf maps an import path to its source directory.
func (l *Loader) dirOf(path string) string {
	if path == l.modPath {
		return l.modRoot
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest))
	}
	dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		// Standard-library packages (net, net/http) import vendored
		// golang.org/x copies that the go tool resolves through
		// GOROOT/src/vendor; mirror that fallback here.
		if v := filepath.Join(runtime.GOROOT(), "src", "vendor", filepath.FromSlash(path)); exists(v) {
			return v
		}
	}
	return dir
}

func exists(dir string) bool {
	_, err := os.Stat(dir)
	return err == nil
}

// Import implements types.Importer so type-checking recurses through
// the same memo the analysis driver fills.
func (l *Loader) Import(path string) (*types.Package, error) {
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// Load returns the type-checked package for an import path, parsing and
// checking it (and, transitively, its dependencies) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Fset: l.Fset, Pkg: types.Unsafe}, nil
	}
	return l.LoadDir(l.dirOf(path), path)
}

// LoadDir type-checks the package in dir under the given import path
// and memoises it there. Fixture tests use the explicit path to place a
// testdata directory at an arbitrary point of the package namespace;
// such shadow loads (dir is not the path's canonical directory) are not
// memoised, so a fixture that imports the real package it shadows
// resolves the genuine article instead of an import cycle on its own
// path, and later Load calls for that path still see the real package.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if canon, err := filepath.Abs(l.dirOf(path)); err == nil {
		if abs, err := filepath.Abs(dir); err == nil && abs != canon {
			return l.loadDir(dir, path)
		}
	}
	if e, ok := l.pkgs[path]; ok {
		if e == nil {
			return nil, fmt.Errorf("msvet: import cycle through %s", path)
		}
		return e.p, e.err
	}
	l.pkgs[path] = nil
	p, err := l.loadDir(dir, path)
	l.pkgs[path] = &loadEntry{p: p, err: err}
	return p, err
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("msvet: load %s: %w", path, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("msvet: check %s: %w", path, err)
	}
	return &Package{Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// ModulePackages enumerates the import paths of every non-test package
// in the module, in sorted order — the "./..." of the multichecker.
// testdata, hidden, and vendor-style directories are skipped, as the go
// tool skips them.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		bp, err := l.ctx.ImportDir(p, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		if len(bp.GoFiles) == 0 { // test-only directory
			return nil
		}
		rel, err := filepath.Rel(l.modRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modPath)
		} else {
			paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
