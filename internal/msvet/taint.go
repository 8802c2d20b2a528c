package msvet

// taint.go is the interprocedural rank-taint engine (DESIGN §16): a
// dataflow over the whole call graph in which any value derived —
// through assignments, struct fields, return values, or implicit
// control flow — from the rank identity (Rank.ID, the mpsim rank id
// field, or root-asymmetric collective results) is tainted, and the
// branches it guards are rank-conditional.
//
// OwnerTable lookups taint exactly when queried with rank-derived keys:
// the grid package's own facts record that Blocks(rank)'s result flows
// from its rank parameter (through the implicit flow of the ownership
// filter), so `owners.Blocks(r.ID())` taints while the rank-uniform
// `for rank := range procs { owners.Blocks(rank) }` maximum does not —
// both are real idioms in the pipeline.
//
// Results of the symmetric collectives (Allreduce*, Allgather*, Bcast)
// are taint *sinks*: every rank computes the identical value, so they
// launder rank-dependence away — which is precisely how the repo turns
// per-rank block counts into the uniform collective-write round count.
// Rooted collectives (Gather, ReduceFloat64) stay tainted: only the
// root sees the data.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// uniformCollectives yield the same result on every rank, so their
// results are untainted no matter the arguments.
var uniformCollectives = map[string]bool{
	"AllreduceFloat64": true, "AllreduceMaxTime": true,
	"AllgatherInt64": true, "Bcast": true, "Barrier": true,
}

// rootedCollectives deliver data only at the root; their results are
// rank-asymmetric by construction.
var rootedCollectives = map[string]bool{
	"Gather": true, "ReduceFloat64": true,
}

// maxTaintRounds bounds the per-package fixpoint; masks only grow, and
// the lattice is finite, so this is a safety net, not a tuning knob.
const maxTaintRounds = 16

// funcInfo is one function (or method) declaration of the package.
type funcInfo struct {
	key  string
	decl *ast.FuncDecl
	fn   *types.Func
	sig  *types.Signature
}

// pkgAnalysis carries the taint and summary computation of one package:
// the mutable fixpoint state (locals, slots), the facts being exported,
// and the diagnostics the spmd analyzer will replay through its Pass.
type pkgAnalysis struct {
	p     *Package
	store *FactStore
	facts *PackageFacts
	graph *callGraph

	funcs     []funcInfo
	funcIndex map[string]funcInfo
	// locals maps every local object of the package (all functions;
	// objects are unique) to its taint mask.
	locals map[types.Object]TaintMask
	// slots maps parameter and receiver objects to their slot index.
	slots   map[types.Object]int
	changed bool

	// building guards summary recursion; diags collects the spmd
	// findings discovered while summaries are built; reported dedupes
	// them by position (a loop-body divergence is judged both inside
	// the loop fold and at function end).
	building map[string]bool
	diags    map[string][]Diagnostic
	reported map[token.Pos]bool

	// cleanReads records the field keys read while not tainted, so the
	// store can tell when a later package's taint makes them stale.
	cleanReads map[string]bool
}

// analyzePackage computes the facts of one loaded package: the taint
// fixpoint first, then the collective-sequence summaries (spmd.go),
// which consume the final taint environment.
func analyzePackage(p *Package, store *FactStore) *pkgAnalysis {
	a := &pkgAnalysis{
		p:          p,
		store:      store,
		facts:      newPackageFacts(p.Pkg.Path()),
		funcIndex:  map[string]funcInfo{},
		locals:     map[types.Object]TaintMask{},
		slots:      map[types.Object]int{},
		building:   map[string]bool{},
		diags:      map[string][]Diagnostic{},
		cleanReads: map[string]bool{},
	}
	a.collectFuncs()
	a.graph = buildCallGraph(a)
	for round := 0; round < maxTaintRounds; round++ {
		a.changed = false
		for _, fi := range a.funcs {
			a.taintFunc(fi)
		}
		if !a.changed {
			break
		}
	}
	a.buildSummaries()
	a.collectTags()
	return a
}

// collectFuncs indexes every function declaration with a body and
// assigns parameter slots (receiver first).
func (a *pkgAnalysis) collectFuncs() {
	for _, f := range a.p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := a.p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			_, key := funcKeyOf(fn)
			if key == "" {
				continue
			}
			sig := fn.Type().(*types.Signature)
			fi := funcInfo{key: key, decl: fd, fn: fn, sig: sig}
			a.funcs = append(a.funcs, fi)
			a.funcIndex[key] = fi
			slot := 0
			if fd.Recv != nil {
				for _, field := range fd.Recv.List {
					for _, name := range field.Names {
						if obj := a.p.Info.Defs[name]; obj != nil {
							a.slots[obj] = slot
						}
					}
				}
				slot++
			}
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						slot++
						continue
					}
					for _, name := range field.Names {
						if obj := a.p.Info.Defs[name]; obj != nil {
							a.slots[obj] = slot
						}
						slot++
					}
				}
			}
		}
	}
}

func (a *pkgAnalysis) setLocal(obj types.Object, mask TaintMask) {
	if obj == nil || mask == 0 {
		return
	}
	if a.locals[obj]|mask != a.locals[obj] {
		a.locals[obj] |= mask
		a.changed = true
	}
}

func (a *pkgAnalysis) setField(key string) {
	if key == "" {
		return
	}
	if !a.facts.Fields[key] {
		a.facts.Fields[key] = true
		a.changed = true
	}
}

func (a *pkgAnalysis) setResult(fi funcInfo, i int, mask TaintMask) {
	masks := a.facts.Taint[fi.key]
	if masks == nil {
		masks = make([]TaintMask, fi.sig.Results().Len())
		a.facts.Taint[fi.key] = masks
	}
	if i < 0 || i >= len(masks) || mask == 0 {
		return
	}
	if masks[i]|mask != masks[i] {
		masks[i] |= mask
		a.changed = true
	}
}

// taintFunc runs one fixpoint round over a function body, propagating
// masks through assignments, implicit control flow, and returns.
func (a *pkgAnalysis) taintFunc(fi funcInfo) {
	// Seed the result-mask slice so callers see a fact (possibly all
	// zero) rather than "unknown" once the fixpoint converges.
	if _, ok := a.facts.Taint[fi.key]; !ok {
		a.facts.Taint[fi.key] = make([]TaintMask, fi.sig.Results().Len())
	}
	a.taintStmt(fi.decl.Body, fi, 0)
}

// namedResults returns the objects of named result parameters, in
// order, or nil when results are unnamed.
func namedResults(a *pkgAnalysis, fi funcInfo) []types.Object {
	if fi.decl.Type.Results == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range fi.decl.Type.Results.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range field.Names {
			objs = append(objs, a.p.Info.Defs[name])
		}
	}
	return objs
}

// taintStmt walks a statement under a control-taint mask: assignments
// and returns inside a branch join the mask of every condition guarding
// them, so `if r.ID() == 0 { lead = true }` taints lead even though the
// assigned value is a constant.
func (a *pkgAnalysis) taintStmt(s ast.Stmt, fi funcInfo, ctrl TaintMask) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			a.taintStmt(st, fi, ctrl)
		}
	case *ast.IfStmt:
		a.taintStmt(s.Init, fi, ctrl)
		c := ctrl | a.exprMask(s.Cond)
		a.taintStmt(s.Body, fi, c)
		a.taintStmt(s.Else, fi, c)
	case *ast.ForStmt:
		a.taintStmt(s.Init, fi, ctrl)
		c := ctrl
		if s.Cond != nil {
			c |= a.exprMask(s.Cond)
		}
		a.taintStmt(s.Post, fi, c)
		a.taintStmt(s.Body, fi, c)
	case *ast.RangeStmt:
		c := ctrl | a.exprMask(s.X)
		if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
			a.assignTo(s.Key, c, fi)
			a.assignTo(s.Value, c, fi)
		}
		a.taintStmt(s.Body, fi, c)
	case *ast.SwitchStmt:
		a.taintStmt(s.Init, fi, ctrl)
		c := ctrl
		if s.Tag != nil {
			c |= a.exprMask(s.Tag)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			cl := c
			for _, e := range clause.List {
				cl |= a.exprMask(e)
			}
			for _, st := range clause.Body {
				a.taintStmt(st, fi, cl)
			}
		}
	case *ast.TypeSwitchStmt:
		a.taintStmt(s.Init, fi, ctrl)
		c := ctrl
		if asg, ok := s.Assign.(*ast.AssignStmt); ok && len(asg.Rhs) == 1 {
			c |= a.exprMask(asg.Rhs[0])
			for _, lhs := range asg.Lhs {
				a.assignTo(lhs, c, fi)
			}
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			c |= a.exprMask(es.X)
		}
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				a.taintStmt(st, fi, c)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			a.taintStmt(clause.Comm, fi, ctrl)
			for _, st := range clause.Body {
				a.taintStmt(st, fi, ctrl)
			}
		}
	case *ast.AssignStmt:
		a.taintAssign(s, fi, ctrl)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					mask := ctrl
					if i < len(vs.Values) {
						mask |= a.exprMask(vs.Values[i])
					} else if len(vs.Values) == 1 {
						mask |= a.exprMask(vs.Values[0])
					}
					a.setLocal(a.p.Info.Defs[name], mask)
				}
			}
		}
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			// Naked return: named results carry their current masks,
			// plus the control taint of reaching this return.
			for i, obj := range namedResults(a, fi) {
				mask := ctrl
				if obj != nil {
					mask |= a.locals[obj]
				}
				a.setResult(fi, i, mask)
			}
			return
		}
		if len(s.Results) == 1 && fi.sig.Results().Len() > 1 {
			// return f() forwarding a multi-value call.
			mask := ctrl | a.exprMask(s.Results[0])
			for i := 0; i < fi.sig.Results().Len(); i++ {
				a.setResult(fi, i, mask)
			}
			return
		}
		for i, res := range s.Results {
			a.setResult(fi, i, ctrl|a.exprMask(res))
		}
	case *ast.ExprStmt:
		a.taintFuncLits(s.X, fi, ctrl)
	case *ast.GoStmt:
		a.taintFuncLits(s.Call, fi, ctrl)
	case *ast.DeferStmt:
		a.taintFuncLits(s.Call, fi, ctrl)
	case *ast.LabeledStmt:
		a.taintStmt(s.Stmt, fi, ctrl)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			a.setLocal(objOf(a.p.Info, id), ctrl)
		}
	case *ast.SendStmt:
		// Channel sends carry no rank-local state we track.
	}
}

// taintFuncLits walks function-literal bodies found inside an
// expression: closures capture enclosing locals through the shared
// object map, so their assignments participate in the same fixpoint.
func (a *pkgAnalysis) taintFuncLits(e ast.Expr, fi funcInfo, ctrl TaintMask) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			a.taintStmt(lit.Body, fi, ctrl)
			return false
		}
		return true
	})
}

func (a *pkgAnalysis) taintAssign(s *ast.AssignStmt, fi funcInfo, ctrl TaintMask) {
	for _, rhs := range s.Rhs {
		a.taintFuncLits(rhs, fi, ctrl)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			a.assignTo(s.Lhs[i], ctrl|a.exprMask(s.Rhs[i]), fi)
		}
		return
	}
	// Multi-value form: x, y := f() — every lhs joins the call's mask.
	var mask TaintMask = ctrl
	for _, rhs := range s.Rhs {
		mask |= a.exprMask(rhs)
	}
	for _, lhs := range s.Lhs {
		a.assignTo(lhs, mask, fi)
	}
}

// assignTo joins mask into the assignment target: locals by object,
// struct fields by global field key, and container elements coarsely
// into the container object itself.
func (a *pkgAnalysis) assignTo(lhs ast.Expr, mask TaintMask, fi funcInfo) {
	if lhs == nil || mask == 0 {
		return
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		a.setLocal(objOf(a.p.Info, lhs), mask)
	case *ast.SelectorExpr:
		if sel, ok := a.p.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if field, ok := sel.Obj().(*types.Var); ok && mask.HasRank() {
				// Field taint is field-based and rank-only: param bits
				// are meaningless outside the assigning function. The
				// root local is deliberately NOT tainted — `opts.Report
				// = x` must not make the unrelated `opts.Migrate` read
				// rank-dependent. Reads of the same field anywhere pick
				// the taint up through the global field key.
				a.setField(fieldKeyOf(sel.Recv(), field))
			}
		}
	case *ast.IndexExpr:
		if root := rootIdent(lhs.X); root != nil {
			a.setLocal(objOf(a.p.Info, root), mask)
		}
	case *ast.StarExpr:
		if root := rootIdent(lhs.X); root != nil {
			a.setLocal(objOf(a.p.Info, root), mask)
		}
	}
}

// rootIdent finds the identifier at the base of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprMask computes the taint mask of an expression: the join of its
// sources (rank identity), parameter slots, tainted locals and fields,
// and callee result masks resolved against argument masks.
func (a *pkgAnalysis) exprMask(e ast.Expr) TaintMask {
	if e == nil {
		return 0
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := objOf(a.p.Info, e)
		if obj == nil {
			return 0
		}
		var mask TaintMask
		if slot, ok := a.slots[obj]; ok {
			mask |= ParamTaint(slot)
		}
		mask |= a.locals[obj]
		return mask
	case *ast.SelectorExpr:
		// Package-qualified identifier (pkg.Name)?
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := a.p.Info.Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		mask := a.exprMask(e.X)
		if sel, ok := a.p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if field, ok := sel.Obj().(*types.Var); ok {
				key := fieldKeyOf(sel.Recv(), field)
				switch {
				case key == "":
				case a.facts.Fields[key] || a.store.fields[key]:
					mask |= RankTaint
				default:
					a.cleanReads[key] = true
				}
			}
		}
		// The mpsim rank id field is a source wherever it is readable.
		if e.Sel.Name == "id" {
			if tv, ok := a.p.Info.Types[e.X]; ok && typeIsNamed(tv.Type, mpsimPath, "Rank") {
				mask |= RankTaint
			}
		}
		return mask
	case *ast.CallExpr:
		return a.callMask(e)
	case *ast.BinaryExpr:
		return a.exprMask(e.X) | a.exprMask(e.Y)
	case *ast.UnaryExpr:
		return a.exprMask(e.X)
	case *ast.ParenExpr:
		return a.exprMask(e.X)
	case *ast.StarExpr:
		return a.exprMask(e.X)
	case *ast.IndexExpr:
		return a.exprMask(e.X) | a.exprMask(e.Index)
	case *ast.SliceExpr:
		return a.exprMask(e.X) | a.exprMask(e.Low) | a.exprMask(e.High) | a.exprMask(e.Max)
	case *ast.TypeAssertExpr:
		return a.exprMask(e.X)
	case *ast.CompositeLit:
		var mask TaintMask
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				mask |= a.exprMask(kv.Value)
			} else {
				mask |= a.exprMask(elt)
			}
		}
		return mask
	case *ast.KeyValueExpr:
		return a.exprMask(e.Value)
	case *ast.FuncLit:
		return 0
	default:
		return 0
	}
}

// callMask resolves the taint of a call's results.
func (a *pkgAnalysis) callMask(call *ast.CallExpr) TaintMask {
	// Conversions are transparent.
	if tv, ok := a.p.Info.Types[call.Fun]; ok && tv.IsType() {
		var mask TaintMask
		for _, arg := range call.Args {
			mask |= a.exprMask(arg)
		}
		return mask
	}
	// mpsim.Rank intrinsics: the identity source, and the collective
	// symmetry classes.
	if name, ok := methodOn(a.p.Info, call, mpsimPath, "Rank"); ok {
		switch {
		case name == "ID":
			return RankTaint
		case uniformCollectives[name]:
			return 0
		case rootedCollectives[name]:
			return RankTaint
		}
	}
	// Static callee with a fact: substitute argument masks into the
	// callee's result masks.
	if fn := staticCallee(a.p.Info, call); fn != nil {
		if masks, ok := a.taintFactFor(fn); ok {
			var out TaintMask
			slotArgs := callSlotArgs(a.p.Info, call)
			for _, m := range masks {
				out |= m & RankTaint
				for _, slot := range m.ParamBits().slots() {
					if slot < len(slotArgs) && slotArgs[slot] != nil {
						out |= a.exprMask(slotArgs[slot])
					}
				}
			}
			return out
		}
	}
	// Unknown callee (stdlib, builtin, func value, dynamic dispatch):
	// conservatively join the arguments and any method receiver —
	// len(tainted), fmt.Sprintf(tainted), sort over tainted data all
	// stay tainted.
	var mask TaintMask
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		mask |= a.exprMask(sel.X)
	}
	for _, arg := range call.Args {
		mask |= a.exprMask(arg)
	}
	return mask
}

// callSlotArgs lays the call's value arguments out by callee slot:
// receiver first for method calls, then positional arguments. Variadic
// overflow keeps its own positions; slots past the mask range are
// simply never consulted. Only a genuine method selection contributes
// a receiver slot — a package-qualified call (pkg.Fn) is a selector
// too, but its sel.X is the package name, not an argument.
func callSlotArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := info.Selections[sel]; isMethod {
			out = append(out, sel.X)
		}
	}
	out = append(out, call.Args...)
	return out
}

// staticCallee resolves the *types.Func a call statically dispatches
// to: a package-level function, a method with a concrete receiver, or a
// locally referenced function identifier. Interface-method and
// func-value calls return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := objOf(info, fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Interface-method calls have no static body to resolve.
			if selInfo, ok := info.Selections[fun]; ok && selInfo.Kind() == types.MethodVal {
				if types.IsInterface(selInfo.Recv()) {
					return nil
				}
			}
			return fn
		}
	}
	return nil
}
