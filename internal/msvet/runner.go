package msvet

// runner.go is the analysis driver: one sequential pass over the
// requested packages in sorted order, then the repo-wide Finish hooks
// over the facts the pass recorded. This is the one entry point
// cmd/msvet and the repo-clean test share, so their findings are
// identical.

import "sort"

// A Runner executes the analyzer suite over a set of module packages.
type Runner struct {
	Loader      *Loader
	Analyzers   []*Analyzer
	CheckAllows bool
}

// Run analyzes the given module packages and returns the merged,
// position-sorted findings (per-package analyzers plus Finish hooks).
func (r *Runner) Run(paths []string) ([]Finding, error) {
	paths = append([]string(nil), paths...)
	sort.Strings(paths)
	facts := &Facts{}
	var findings []Finding
	for _, path := range paths {
		p, err := r.Loader.Load(path)
		if err != nil {
			return nil, err
		}
		fs, err := RunPackage(p, r.Analyzers, r.CheckAllows, facts)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	for _, a := range r.Analyzers {
		if a.Finish != nil {
			findings = append(findings, a.Finish(facts)...)
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
}
