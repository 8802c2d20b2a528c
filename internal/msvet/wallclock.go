package msvet

import (
	"go/ast"
)

// wallclockTimeOK are the package time functions that read no clock:
// they build or parse values. Every other package-level function of
// time reads or waits on the host clock (Now, Sleep, the timers and
// tickers, and any such function a later Go release adds), and any
// real-time wait on a simulated path breaks same-seed replay.
var wallclockTimeOK = map[string]bool{
	"Date": true, "Unix": true, "UnixMilli": true, "UnixMicro": true,
	"Parse": true, "ParseInLocation": true, "ParseDuration": true,
	"FixedZone": true, "LoadLocation": true, "LoadLocationFromTZData": true,
}

// wallclockRandOK are the math/rand (and v2) package-level functions
// that do NOT draw from the process-global, wall-seeded source; they
// construct explicitly seeded generators and stay legal.
var wallclockRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// WallclockAnalyzer flags host-clock reads and unseeded global
// randomness inside the deterministic packages. Everything on the
// simulated path must derive from inputs, seeds, and virtual time
// (vtime), or same-seed runs stop being byte-identical. There is no
// exception: mpsim announces every lost message, so even a timed
// receive never needs the host clock.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc: "flags time.Now/Sleep/timers and unseeded math/rand in deterministic packages; " +
		"simulated paths must depend only on inputs, seeds, and virtual time",
	Applies: func(pkgPath string) bool { return deterministicPkgs[pkgPath] },
	Run:     runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.Info, call)
			switch pkg {
			case "time":
				if !wallclockTimeOK[name] {
					pass.Reportf(call.Pos(),
						"time.%s reads the host clock in deterministic package %s; use virtual time (vtime)",
						name, pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !wallclockRandOK[name] {
					pass.Reportf(call.Pos(),
						"rand.%s draws from the global wall-seeded source in deterministic package %s; use rand.New(rand.NewSource(seed))",
						name, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
