package msvet

import (
	"go/ast"
	"go/types"
	"strings"
)

// kernelPkgs are the packages whose *Kernel functions are hot paths:
// the chunked parallel-for primitive itself, the SoA gradient kernels,
// and the pointer-jumping tracer sweeps. Only these run per-element
// loops over whole blocks every compute stage.
var kernelPkgs = map[string]bool{
	"parms/internal/kernel":    true,
	"parms/internal/gradient":  true,
	"parms/internal/mscomplex": true,
}

// KernelAnalyzer flags per-element heap allocation and closure creation
// inside the loops of functions named *Kernel. Those loops execute once
// per cell or per vertex of a block — millions of iterations per
// compute stage — and stay cheap, on one goroutine or split over a
// kernel.Pool, only while the loop body is branch-predictable
// flat-array arithmetic. A make/new/append or a composite literal that
// escapes turns each iteration into an allocation; a func literal
// additionally forces its captures to the heap. Scratch belongs above
// the loop, sized once per chunk (see the per-chunk write counter of
// mscomplex.jumpSweepKernel), where the msvet suite leaves it alone.
var KernelAnalyzer = &Analyzer{
	Name: "kernel",
	Doc: "flags per-element allocation (make/new/append, composite literals) and closure " +
		"creation inside loops of *Kernel functions; hot sweep loops must be allocation-free " +
		"with scratch hoisted to per-chunk scope",
	Applies: func(pkgPath string) bool { return kernelPkgs[pkgPath] },
	Run:     runKernel,
}

func runKernel(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasSuffix(fd.Name.Name, "Kernel") {
				continue
			}
			checkKernelFunc(pass, fd)
		}
	}
	return nil
}

// checkKernelFunc scans one *Kernel function for loops, descending into
// func literals (the chunk bodies handed to kernel.Pool.Run) on the
// way: a loop inside the chunk closure is exactly the hot path. Each
// outermost loop is scanned once; nested loops are covered by that scan
// and not revisited, so a finding is reported exactly once.
func checkKernelFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.ForStmt:
			flagLoopAllocs(pass, fd.Name.Name, loop.Body)
			return false
		case *ast.RangeStmt:
			flagLoopAllocs(pass, fd.Name.Name, loop.Body)
			return false
		}
		return true
	})
}

// flagLoopAllocs reports every allocation-shaped node inside one hot
// loop body, including bodies of loops nested within it.
func flagLoopAllocs(pass *Pass, fn string, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(),
				"func literal inside a hot loop of %s forces captured variables to the heap every iteration; hoist the closure above the loop or inline its body",
				fn)
			return false
		case *ast.CompositeLit:
			pass.Reportf(x.Pos(),
				"composite literal inside a hot loop of %s allocates per element; hoist the value to per-chunk scratch above the loop",
				fn)
		case *ast.CallExpr:
			id, ok := x.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := pass.Info.Uses[id].(*types.Builtin)
			if !ok {
				return true
			}
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(x.Pos(),
					"%s inside a hot loop of %s allocates per element; hoist the buffer to per-chunk scratch above the loop",
					b.Name(), fn)
			}
		}
		return true
	})
}
