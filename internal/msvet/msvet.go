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
// Findings are suppressed site-by-site with a justified annotation:
//
//	//msvet:allow <analyzer>: <one-line justification>
//
// placed on the flagged line or on its own line directly above. An
// annotation with no justification, an unknown analyzer name, or one
// that no longer suppresses anything is itself a finding, so stale
// escape hatches cannot accumulate.
package msvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name is the identifier used in findings and //msvet:allow
	// annotations.
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

// byName resolves an analyzer name, for allow parsing.
func byName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
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
}

// allowMarker introduces a suppression annotation.
const allowMarker = "//msvet:allow "

// allowRec is one parsed //msvet:allow annotation.
type allowRec struct {
	pos       token.Pos // position of the annotation comment
	analyzer  string
	justified bool
	used      bool
}

// parseAllows extracts the allow annotations of a file, keyed by
// (analyzer, covered line). An annotation on line L covers findings on
// L and L+1, so it may sit inline or on its own line above the site.
func parseAllows(fset *token.FileSet, file *ast.File) (map[string]map[int]*allowRec, []*allowRec) {
	byLine := map[string]map[int]*allowRec{}
	var all []*allowRec
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, strings.TrimSpace(allowMarker)) {
				continue
			}
			body := strings.TrimPrefix(c.Text, strings.TrimSpace(allowMarker))
			// Fixtures append `// want ...` expectations to annotation
			// comments; they are markers for the test harness, not part
			// of the annotation.
			if i := strings.Index(body, "// want"); i >= 0 {
				body = body[:i]
			}
			body = strings.TrimSpace(body)
			name, just, found := strings.Cut(body, ":")
			rec := &allowRec{
				pos:       c.Pos(),
				analyzer:  strings.TrimSpace(name),
				justified: found && strings.TrimSpace(just) != "",
			}
			all = append(all, rec)
			line := fset.Position(c.Pos()).Line
			m := byLine[rec.analyzer]
			if m == nil {
				m = map[int]*allowRec{}
				byLine[rec.analyzer] = m
			}
			m[line] = rec
			m[line+1] = rec
		}
	}
	return byLine, all
}

// Finding is a finalized, allow-filtered diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// RunPackage runs the given analyzers over one loaded package and
// returns the findings that survive //msvet:allow filtering. When
// checkAllows is true (the full suite is running), malformed and unused
// annotations are reported as findings of the pseudo-analyzer
// "msvet:allow" — drift in the escape hatches fails the build just like
// a live violation.
func RunPackage(p *Package, analyzers []*Analyzer, checkAllows bool) ([]Finding, error) {
	type allowIndex struct {
		byLine map[string]map[int]*allowRec
		all    []*allowRec
	}
	allows := map[*ast.File]allowIndex{}
	for _, f := range p.Files {
		byLine, all := parseAllows(p.Fset, f)
		allows[f] = allowIndex{byLine, all}
	}

	var findings []Finding
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(p.Pkg.Path()) {
			continue
		}
		allowed := func(pos token.Pos) bool {
			for _, f := range p.Files {
				if f.FileStart <= pos && pos <= f.FileEnd {
					rec := allows[f].byLine[a.Name][p.Fset.Position(pos).Line]
					if rec != nil && rec.justified {
						rec.used = true
						return true
					}
				}
			}
			return false
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     p.Fset,
			Files:    p.Files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			Report: func(d Diagnostic) {
				if !allowed(d.Pos) {
					findings = append(findings, Finding{Pos: p.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", p.Pkg.Path(), a.Name, err)
		}
	}

	if checkAllows {
		for _, f := range p.Files {
			for _, rec := range allows[f].all {
				pos := p.Fset.Position(rec.pos)
				switch {
				case byName(rec.analyzer) == nil:
					findings = append(findings, Finding{Pos: pos, Analyzer: "msvet:allow",
						Message: fmt.Sprintf("annotation names unknown analyzer %q", rec.analyzer)})
				case !rec.justified:
					findings = append(findings, Finding{Pos: pos, Analyzer: "msvet:allow",
						Message: fmt.Sprintf("allow %s carries no justification (grammar: //msvet:allow %s: <why>)", rec.analyzer, rec.analyzer)})
				case !rec.used:
					findings = append(findings, Finding{Pos: pos, Analyzer: "msvet:allow",
						Message: fmt.Sprintf("allow %s suppresses nothing — stale annotation, remove it", rec.analyzer)})
				}
			}
		}
	}

	sortFindings(findings)
	return findings, nil
}
