package parms

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// deterministicPkgs are the packages on the simulated path: everything
// they compute must depend only on inputs, seeds and virtual time, or
// same-seed runs stop being byte-identical (DESIGN §11).
var deterministicPkgs = []string{
	"internal/merge", "internal/serial", "internal/pario", "internal/mscomplex",
	"internal/gradient", "internal/mpsim", "internal/obs", "internal/grid",
	"internal/cube", "internal/vtime", "internal/fault", "internal/torus",
	"internal/synth",
}

// hostClockOK are the package-level functions of time and math/rand (v1
// and v2) that read no host clock and draw from no wall-seeded global
// source: time's constructors and parsers, its integer types called as
// conversions (time.Duration(n)), and rand's explicitly seeded
// generators. Every other call reads or waits on the host clock (Now,
// Sleep, the timers and tickers) or draws from the global source
// (rand.Intn, rand.Float64).
var hostClockOK = map[string]map[string]bool{
	"time": {
		"Date": true, "Unix": true, "UnixMilli": true, "UnixMicro": true,
		"Parse": true, "ParseInLocation": true, "ParseDuration": true,
		"FixedZone": true, "LoadLocation": true, "LoadLocationFromTZData": true,
		"Duration": true, "Month": true, "Weekday": true,
	},
	"math/rand":    {"New": true, "NewSource": true},
	"math/rand/v2": {"New": true, "NewPCG": true, "NewChaCha8": true},
}

// hostClockCalls parses one Go source file and returns a finding for
// every call through time, math/rand or math/rand/v2 that is not on
// hostClockOK. Each import's local name is resolved, aliases included;
// an identifier bound to a local declaration instead is not a package.
func hostClockCalls(fset *token.FileSet, name string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return nil, err
	}
	local := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		if hostClockOK[ipath] == nil {
			continue
		}
		switch {
		case imp.Name == nil:
			local[path.Base(strings.TrimSuffix(ipath, "/v2"))] = ipath
		case imp.Name.Name == "." || imp.Name.Name == "_":
			return nil, fmt.Errorf("%s: %s import of %s hides its calls", fset.Position(imp.Pos()), imp.Name.Name, ipath)
		default:
			local[imp.Name.Name] = ipath
		}
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil {
			return true
		}
		if ipath, ok := local[pkg.Name]; ok && !hostClockOK[ipath][sel.Sel.Name] {
			found = append(found, fmt.Sprintf("%s: %s.%s reads the host clock or the global random source; use virtual time (vtime) or rand.New(rand.NewSource(seed))",
				fset.Position(call.Pos()), ipath, sel.Sel.Name))
		}
		return true
	})
	return found, nil
}

// TestNoHostClockInDeterministicPackages: no non-test file of a
// deterministic package reads the host clock or the global random
// source.
func TestNoHostClockInDeterministicPackages(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range deterministicPkgs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			found, err := hostClockCalls(fset, file, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range found {
				t.Error(f)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no Go files; the deterministic package list is stale", dir)
		}
	}
}

// TestHostClockCallsFlagged checks the scanner itself: clock reads and
// global-source draws are flagged under their own and aliased names,
// while conversions, seeded generators and a local variable that
// shadows a package name are not.
func TestHostClockCallsFlagged(t *testing.T) {
	const src = `package p

import (
	"math/rand"
	r2 "math/rand/v2"
	"time"
	t "time"
)

func f(s int64, x int) {
	_ = time.Now()
	time.Sleep(1)
	_ = rand.Intn(3)
	_ = t.Now()
	_ = r2.IntN(3)
	_ = time.Duration(x)
	_ = rand.New(rand.NewSource(s))
	_ = r2.New(r2.NewPCG(1, 2))
	_ = time.Unix(0, 0)
}

func g(time clock) { _ = time.Now() }

type clock struct{}

func (clock) Now() int { return 0 }
`
	found, err := hostClockCalls(token.NewFileSet(), "p.go", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"p.go:11:6: time.Now", "p.go:12:2: time.Sleep", "p.go:13:6: math/rand.Intn",
		"p.go:14:6: time.Now", "p.go:15:6: math/rand/v2.IntN",
	}
	if len(found) != len(want) {
		t.Fatalf("found %d calls, want %d:\n%s", len(found), len(want), strings.Join(found, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(found[i], w+" ") {
			t.Errorf("finding %d = %q, want prefix %q", i, found[i], w)
		}
	}
	if _, err := hostClockCalls(token.NewFileSet(), "d.go", "package p\nimport . \"time\"\n"); err == nil {
		t.Error("a dot import of time was accepted")
	}
}
