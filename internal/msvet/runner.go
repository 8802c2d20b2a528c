package msvet

// runner.go is the analysis driver: one sequential pass over the
// requested packages in sorted order, then the repo-wide Finish hooks
// over the completed fact store. Module dependencies need no schedule —
// FactStore.Facts analyzes a dependency on first use — so the pass is
// deterministic by construction. Field taint is the one fact that flows
// between packages that need not import each other (a sibling can taint
// a field of a shared struct), so the pass is repeated, seeded with
// every field tainted so far, until no package read a field as clean
// that ended up tainted. This is the one entry point cmd/msvet and the
// repo-clean test share, so their findings are identical.

import "sort"

// A Runner executes the analyzer suite over a set of module packages.
type Runner struct {
	Loader      *Loader
	Analyzers   []*Analyzer
	CheckAllows bool
}

// RunStats reports what a run did, for -stats output and tests.
type RunStats struct {
	Packages int // packages requested
	Rounds   int // passes until field taint reached its fixpoint
}

// Run analyzes the given module packages and returns the merged,
// position-sorted findings (per-package analyzers plus Finish hooks).
func (r *Runner) Run(paths []string) ([]Finding, *RunStats, error) {
	paths = append([]string(nil), paths...)
	sort.Strings(paths)
	stats := &RunStats{Packages: len(paths)}
	var tainted map[string]bool
	for {
		stats.Rounds++
		store := NewFactStore(r.Loader.ModPath(), r.Loader.Load)
		store.seedFields(tainted)
		var findings []Finding
		for _, path := range paths {
			p, err := r.Loader.Load(path)
			if err != nil {
				return nil, nil, err
			}
			fs, err := RunPackage(p, r.Analyzers, r.CheckAllows, store)
			if err != nil {
				return nil, nil, err
			}
			findings = append(findings, fs...)
		}
		if store.staleFieldReads() {
			// Tainted fields only grow, and each extra round strictly
			// grows them, so this terminates.
			tainted = store.fields
			continue
		}
		for _, a := range r.Analyzers {
			if a.Finish != nil {
				findings = append(findings, a.Finish(store)...)
			}
		}
		sortFindings(findings)
		return findings, stats, nil
	}
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
