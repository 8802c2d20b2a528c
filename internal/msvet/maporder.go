package msvet

import (
	"go/ast"
	"go/types"
)

// MaporderAnalyzer flags range-over-map loops whose iteration order
// escapes: bodies that append to a slice declared outside the loop,
// write to an encoder/hash/writer, or send on a channel. Go randomizes
// map iteration per run, so any such loop makes serialized bytes,
// traces, or message streams differ between identical executions —
// exactly the nondeterminism the byte-identical trace and checkpoint
// guarantees forbid. The collect-then-sort idiom is recognized: a loop
// that only collects keys/values into a slice which is sorted later in
// the same function is clean.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flags map iteration whose order escapes into slices, encoders, hashes, or channels; " +
		"sort the keys first (cf. analyze.sortedStringKeys, FS.Names)",
	Run: runMaporder,
}

// sortFuncs are the sort entry points that discharge a collect-then-
// sort loop: sort.X(target) / slices.SortX(target) after the loop.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	pkg, _ := pkgFunc(info, call)
	return pkg == "sort" || pkg == "slices"
}

// writerMethods are method names whose call inside a map-range body
// counts as streaming bytes out in iteration order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Sum": true,
}

// fmtWriters are the fmt functions that stream to an io.Writer.
var fmtWriters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMaporder(pass *Pass) error {
	funcDecls(pass.Files, func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, body, rng)
			return true
		})
	})
	return nil
}

// checkMapRange inspects one map-range body for order-escaping sinks.
func checkMapRange(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration publishes elements in randomized order; sort the keys first")
		case *ast.AssignStmt:
			// target = append(target, ...) with target declared outside
			// the loop and never sorted afterwards.
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" ||
					(pass.Info.Uses[id] != nil && pass.Info.Uses[id].Pkg() != nil) {
					continue
				}
				target, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				if declaredWithin(pass.Info, target, rng.Body) {
					continue // loop-local accumulator, order cannot escape
				}
				if sortedAfter(pass, fnBody, rng, target) {
					continue // collect-then-sort idiom
				}
				pass.Reportf(call.Pos(),
					"append to %q inside map iteration records elements in randomized order; sort the keys first or sort %q before it escapes",
					target.Name, target.Name)
			}
		case *ast.CallExpr:
			if pkg, name := pkgFunc(pass.Info, n); pkg == "fmt" && fmtWriters[name] {
				pass.Reportf(n.Pos(), "fmt.%s inside map iteration streams output in randomized order; sort the keys first", name)
				return true
			}
			if name, recv, ok := methodCallOnWriterish(pass.Info, n); ok {
				pass.Reportf(n.Pos(),
					"%s.%s inside map iteration streams bytes in randomized order; sort the keys first", recv, name)
			}
		}
		return true
	})
}

// methodCallOnWriterish reports method calls that look like byte sinks:
// a writer-ish method name on a receiver implementing io.Writer or
// having a Sum/Encode shape (hash.Hash, encoders).
func methodCallOnWriterish(info *types.Info, call *ast.CallExpr) (name, recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !writerMethods[fn.Name()] {
		return "", "", false
	}
	// Writer-ish receivers only: the receiver type (or its pointer)
	// must have a Write([]byte) (int, error) method, so ordinary
	// methods that happen to be called Sum or Encode don't trip it.
	t := sig.Recv().Type()
	if !hasWriteMethod(t) && fn.Name() != "Encode" {
		return "", "", false
	}
	var recvName string
	if tv, okT := info.Types[sel.X]; okT {
		recvName = tv.Type.String()
	}
	return fn.Name(), recvName, true
}

// hasWriteMethod reports whether t (or *t) has a method named Write
// taking a single []byte.
func hasWriteMethod(t types.Type) bool {
	if hasWriteMethodSet(types.NewMethodSet(t)) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr && !types.IsInterface(t) {
		return hasWriteMethodSet(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}

func hasWriteMethodSet(ms *types.MethodSet) bool {
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		if fn.Name() != "Write" {
			continue
		}
		sig, okSig := fn.Type().(*types.Signature)
		if !okSig || sig.Params().Len() != 1 {
			continue
		}
		if slice, okSl := sig.Params().At(0).Type().(*types.Slice); okSl {
			if basic, okB := slice.Elem().(*types.Basic); okB && basic.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// declaredWithin reports whether the identifier's declaration lies
// inside the given node's source range.
func declaredWithin(info *types.Info, id *ast.Ident, n ast.Node) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// sortedAfter reports whether target is passed to a sort/slices call
// positioned after the range loop inside the same function body.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target *ast.Ident) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass.Info, call) || len(call.Args) == 0 {
			return true
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[arg]; obj != nil && obj == objOf(pass.Info, target) {
			found = true
		}
		return !found
	})
	return found
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
