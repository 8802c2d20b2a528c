package msvet

import (
	"go/ast"
	"go/types"
)

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("", "" when the callee is anything else:
// a method, builtin, conversion, or local function).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// funcDecls calls visit on the body of every function declaration in
// the files; the visitor descends into nested func literals itself when
// it wants to.
func funcDecls(files []*ast.File, visit func(body *ast.BlockStmt)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd.Body)
			}
		}
	}
}
