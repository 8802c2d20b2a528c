// Package msvet is a repo-specific static-analysis suite for invariants
// a runtime test only samples on the paths it happens to run: same-seed
// determinism (no host clock, no escaping map order on the simulated
// path) and allocation-free hot kernels (DESIGN §11). Message pairing,
// collective order and on-disk framing are left to runtime tests.
//
// The suite is deliberately built on the standard library alone
// (go/ast, go/parser, go/types) rather than golang.org/x/tools/go/
// analysis: the build environment is hermetic with no module proxy, and
// a zero-dependency vet pass keeps it that way. The Analyzer/Pass/
// Diagnostic shapes mirror x/tools so the analyzers could be ported to
// a real multichecker mechanically if the dependency ever lands.
//
// There is no suppression annotation: a finding is fixed, not excused.
package msvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name is the identifier used in findings.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Applies reports whether the analyzer runs on the given import
	// path; nil means every package.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		MaporderAnalyzer,
		KernelAnalyzer,
	}
}

// deterministicPkgs are the packages on the simulated path: everything
// they compute must depend only on inputs and seeds, never on the host
// (DESIGN §11). The wallclock analyzer runs here.
var deterministicPkgs = map[string]bool{
	"parms/internal/merge":     true,
	"parms/internal/serial":    true,
	"parms/internal/pario":     true,
	"parms/internal/mscomplex": true,
	"parms/internal/gradient":  true,
	"parms/internal/mpsim":     true,
	"parms/internal/obs":       true,
	"parms/internal/grid":      true,
	"parms/internal/cube":      true,
	"parms/internal/vtime":     true,
	"parms/internal/fault":     true,
	"parms/internal/torus":     true,
	"parms/internal/synth":     true,
}

// Finding is a finalized diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// RunPackage runs the given analyzers over one loaded package and
// returns their findings, sorted by position.
func RunPackage(p *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(p.Pkg.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     p.Fset,
			Files:    p.Files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{Pos: p.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", p.Pkg.Path(), a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}
