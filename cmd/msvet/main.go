// Command msvet is the repo's invariant multichecker: the static
// analyzers that make the determinism and hot-kernel bug classes
// unrepresentable (DESIGN §11). Message pairing and collective order
// are not among them: mpsim checks them at run time (DESIGN §16).
// msvet loads every non-test package of the module from source — no go
// command, no network — runs the suite in one sequential pass over the
// packages in sorted order, and exits non-zero on any finding. There is
// no suppression annotation.
//
// Usage:
//
//	msvet [flags] [packages]
//
// Package arguments are import paths or the ./... pattern; with none,
// the whole module is checked.
//
// Exit codes: 0 clean, 1 findings, 2 loader or internal error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parms/internal/msvet"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list analyzers and exit")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations alongside findings")
	stats := flag.Bool("stats", false, "print package count and timing to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: msvet [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range msvet.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range msvet.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		return fatal(err)
	}
	modRoot, modPath, err := msvet.ModuleRoot(wd)
	if err != nil {
		return fatal(err)
	}
	loader := msvet.NewLoader(modRoot, modPath)

	var paths []string
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.ModulePackages()
			if err != nil {
				return fatal(err)
			}
			paths = append(paths, all...)
		case strings.HasPrefix(arg, "./"):
			rel := strings.TrimPrefix(arg, "./")
			if rel == "" || rel == "." {
				paths = append(paths, modPath)
			} else {
				paths = append(paths, modPath+"/"+rel)
			}
		default:
			paths = append(paths, arg)
		}
	}

	start := time.Now()
	findings, err := msvet.Run(loader, paths)
	if err != nil {
		return fatal(err)
	}
	elapsed := time.Since(start)

	for _, f := range findings {
		fmt.Printf("%s\n", f)
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=msvet %s::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "msvet: %d packages, %.2fs\n", len(paths), elapsed.Seconds())
	}

	if len(findings) > 0 {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "msvet: %v\n", err)
	return 2
}
