package msvet

import (
	"fmt"
	"regexp"
	"sort"
)

// wantRe matches fixture expectations: // want `regexp`. Multiple want
// markers on one line expect multiple findings there.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// CheckFixture is the analysistest-style regression harness: it runs
// the analyzers over the package in dir — type-checked under pkgPath,
// which places the fixture anywhere in the package namespace (a
// deterministic path for wallclock, a kernel package for kernel) —
// and compares findings against the fixture's `// want "re"` comments
// line by line. It returns one human-readable mismatch per problem:
// expected-but-missing, reported-but-unexpected, or pattern mismatch.
func CheckFixture(l *Loader, dir, pkgPath string, analyzers []*Analyzer) ([]string, error) {
	p, err := l.LoadDir(dir, pkgPath)
	if err != nil {
		return nil, err
	}
	findings, err := RunPackage(p, analyzers)
	if err != nil {
		return nil, err
	}

	type want struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[string][]*want{} // "file:line" -> expectations
	key := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						return nil, fmt.Errorf("bad want pattern %q: %w", m[1], err)
					}
					pos := p.Fset.Position(c.Pos())
					wants[key(pos.Filename, pos.Line)] = append(wants[key(pos.Filename, pos.Line)], &want{re: re})
				}
			}
		}
	}

	var problems []string
	for _, f := range findings {
		ws := wants[key(f.Pos.Filename, f.Pos.Line)]
		matched := false
		for _, w := range ws {
			if !w.hit && w.re.MatchString(f.Analyzer+": "+f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding at %s", f))
		}
	}
	locs := make([]string, 0, len(wants))
	for loc := range wants {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	for _, loc := range locs {
		for _, w := range wants[loc] {
			if !w.hit {
				problems = append(problems, fmt.Sprintf("%s: expected finding matching %q, got none", loc, w.re))
			}
		}
	}
	return problems, nil
}
