package msvet

import (
	"go/ast"
	"go/types"
)

// mpsimPath is the import path of the message-passing substrate whose
// call discipline the droppederr and sendrecv analyzers enforce.
const mpsimPath = "parms/internal/mpsim"

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

// methodOn resolves a call to a method and reports its name when the
// receiver's named type is typeName declared in pkgPath (through any
// number of pointers).
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName string) (name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	for {
		ptr, isPtr := t.(*types.Pointer)
		if !isPtr {
			break
		}
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	return fn.Name(), true
}

// containsCall reports whether the expression tree contains any node
// for which pred returns true.
func containsMatch(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if pred(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcBodies yields every function body in the files: declarations and
// literals alike, each exactly once at its outermost declaration (the
// visitor descends into nested literals itself when it wants to).
func funcDecls(files []*ast.File, visit func(body *ast.BlockStmt)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd.Body)
			}
		}
	}
}
