package msvet

// runner.go is the analysis driver: one sequential pass of the full
// suite over the requested packages in sorted order. This is the one
// entry point cmd/msvet and the repo-clean test share, so their
// findings are identical.

import "sort"

// Run analyzes the given module packages with every analyzer and
// returns the merged, position-sorted findings.
func Run(l *Loader, paths []string) ([]Finding, error) {
	paths = append([]string(nil), paths...)
	sort.Strings(paths)
	var findings []Finding
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		fs, err := RunPackage(p, Analyzers())
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
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
