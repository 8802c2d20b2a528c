package msvet

// spmd.go is the interprocedural collective-sequence matcher (DESIGN
// §16): the analyzer that catches the mismatched-collective deadlock
// through arbitrarily deep helpers. For every function it computes the
// set of distinct ordered collective sequences reachable through it —
// helper calls inlined via their exported summaries, uniform-count
// loops folded to one digest element, error-return and panic paths
// excluded as cluster aborts — and flags the function when two paths
// NOT distinguished by a rank-uniform condition yield different
// sequences. A branch on a rank-uniform value may legitimately select
// different collectives (every rank takes the same arm); a branch on a
// rank-derived value may not, because different ranks then enter
// different collectives and the cluster deadlocks (Gyulassy et al. 2012
// §4, the MPI collective-matching rule).
//
// Paths selected by a formal parameter are exported unresolved
// (depParam) and settled at each call site against the argument's taint
// mask — that is what carries the verdict across call frames.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"hash/fnv"
	"sort"
	"strings"
)

// collectiveMethods are the mpsim.Rank operations every rank must enter
// in the same order: the blocking collectives plus collective IO. A
// call reached by only some ranks deadlocks the cluster or silently
// mismatches payloads — the MPI collective-matching rule the paper's
// merge inherits (Gyulassy et al. 2012 §4).
var collectiveMethods = map[string]bool{
	"Barrier": true, "Bcast": true, "ReduceFloat64": true,
	"AllreduceFloat64": true, "AllreduceMaxTime": true,
	"Gather": true, "AllgatherInt64": true,
	"CollectiveWrite": true, "CollectiveRead": true,
}

// SpmdAnalyzer reports rank-divergent collective sequences. The heavy
// lifting happens during fact computation (analyzePackage); Run replays
// the pending diagnostics through the Pass so //msvet:allow filtering
// and fixture matching work like any other analyzer.
var SpmdAnalyzer = &Analyzer{
	Name: "spmd",
	Doc: "matches the ordered mpsim collective sequence across all control-flow paths " +
		"(helpers inlined through package facts) and flags rank-dependent divergence, " +
		"the deep mismatched-collective deadlock",
	Run: runSpmd,
}

func runSpmd(pass *Pass) error {
	if pass.state == nil {
		return fmt.Errorf("spmd: package facts were not computed")
	}
	for _, d := range pass.state.diags["spmd"] {
		pass.Report(d)
	}
	return nil
}

// Enumeration caps: beyond these a summary collapses to Opaque (the
// lattice top) — callers then treat the whole call as one opaque
// element, trading findings for zero false positives.
const (
	maxVariants = 24
	maxSeqLen   = 40
)

type termKind uint8

const (
	termNone     termKind = iota // path still running
	termReturn                   // normal return
	termBreak                    // exits the innermost for, switch or select
	termContinue                 // next iteration
	termAbort                    // error return or panic: cluster abort, not divergence
)

// pvar is the builder-internal variant: an exported Variant plus the
// termination kind and the position of the rank-dependent branch that
// selected it (where a mismatch is reported).
type pvar struct {
	seq    []string
	dep    uint8
	params TaintMask
	selPos token.Pos
	term   termKind
}

func (v pvar) key() string {
	return strings.Join(v.seq, "\x1f") + "\x00" + fmt.Sprint(v.term)
}

// summaryBuilder walks one function body accumulating path variants.
type summaryBuilder struct {
	a      *pkgAnalysis
	sig    *types.Signature
	opaque bool
}

// buildSummaries computes and exports the summary of every declared
// function, then checks each function literal as an independent
// uniform entry point (mpsim.Run callbacks are closures; a collective
// divergence inside one is just as fatal).
func (a *pkgAnalysis) buildSummaries() {
	for _, fi := range a.funcs {
		a.buildSummary(fi)
	}
	for _, f := range a.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			sig, _ := a.p.Info.Types[lit].Type.(*types.Signature)
			b := &summaryBuilder{a: a, sig: sig}
			out := b.stmts(lit.Body.List, []pvar{{}})
			if !b.opaque {
				b.checkVariants(out)
			}
			return true
		})
	}
}

// buildSummary computes one function's summary on demand (summaryFor
// recurses into it for local callees) and records it in the facts.
func (a *pkgAnalysis) buildSummary(fi funcInfo) {
	if _, done := a.facts.Summaries[fi.key]; done || a.building[fi.key] {
		return
	}
	a.building[fi.key] = true
	defer delete(a.building, fi.key)

	b := &summaryBuilder{a: a, sig: fi.sig}
	out := b.stmts(fi.decl.Body.List, []pvar{{}})
	if !b.opaque {
		b.checkVariants(out)
	}
	a.facts.Summaries[fi.key] = b.export(out, fi)
}

// report appends an spmd diagnostic, once per position.
func (a *pkgAnalysis) report(pos token.Pos, format string, args ...any) {
	if a.reported == nil {
		a.reported = map[token.Pos]bool{}
	}
	if a.reported[pos] {
		return
	}
	a.reported[pos] = true
	a.diags["spmd"] = append(a.diags["spmd"], Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// checkVariants is the mismatch judgment: among the non-abort variants,
// two distinct (sequence, termination) outcomes where at least one was
// selected by a rank-derived condition mean ranks diverge.
func (b *summaryBuilder) checkVariants(vs []pvar) {
	groups := map[string]pvar{}
	var rankVs []pvar
	for _, v := range vs {
		if v.term == termAbort {
			continue
		}
		n := v
		if n.term == termNone {
			n.term = termReturn // falling off the end is a return
		}
		if _, ok := groups[n.key()]; !ok {
			groups[n.key()] = n
		}
		if n.dep == depRank {
			rankVs = append(rankVs, n)
		}
	}
	if len(groups) < 2 || len(rankVs) == 0 {
		return
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, rv := range rankVs {
		other := ""
		for _, k := range keys {
			if k != rv.key() {
				other = k
				break
			}
		}
		if other == "" {
			continue
		}
		b.a.report(rv.selPos,
			"rank-dependent control flow yields mismatched collective sequences: %s vs %s; every rank must enter the same collectives in the same order — hoist the collective out of the rank-conditional path or guard it with a rank-uniform condition",
			seqString(rv.seq), seqString(groups[other].seq))
	}
}

// export converts builder variants into the serializable summary.
func (b *summaryBuilder) export(vs []pvar, fi funcInfo) Summary {
	may := b.a.graph.reaches(fi.key)
	if b.opaque {
		return Summary{Opaque: true, May: may}
	}
	var out []Variant
	seen := map[string]int{}
	for _, v := range vs {
		if v.term == termAbort {
			continue
		}
		ev := Variant{Seq: v.seq, Dep: v.dep, Params: v.params}
		if ev.Dep == depRank {
			// Internal rank divergence was already reported (or the
			// sequences were equal); callers must not re-flag it.
			ev.Dep, ev.Params = depNone, 0
		}
		k := strings.Join(ev.Seq, "\x1f")
		if i, ok := seen[k]; ok {
			// Keep the weakest selection class for a duplicate
			// sequence: reachable unconditionally beats param-gated.
			if ev.Dep < out[i].Dep {
				out[i].Dep, out[i].Params = ev.Dep, ev.Params
			}
			continue
		}
		seen[k] = len(out)
		out = append(out, ev)
		if len(v.seq) > 0 {
			may = true
		}
	}
	return Summary{Variants: out, May: may}
}

// --- statement walk ---

func splitVars(vs []pvar) (alive, done []pvar) {
	for _, v := range vs {
		if v.term == termNone {
			alive = append(alive, v)
		} else {
			done = append(done, v)
		}
	}
	return alive, done
}

// stmts threads the alive variants through a statement list; terminated
// variants accumulate and pass through untouched.
func (b *summaryBuilder) stmts(list []ast.Stmt, in []pvar) []pvar {
	cur := in
	var done []pvar
	for _, s := range list {
		alive, d := splitVars(cur)
		done = append(done, d...)
		if len(alive) == 0 {
			cur = nil
			break
		}
		cur = b.stmt(s, alive)
		if b.opaque {
			return nil
		}
	}
	return append(done, cur...)
}

func (b *summaryBuilder) cap(vs []pvar) []pvar {
	if len(vs) > maxVariants {
		b.opaque = true
		return vs[:maxVariants]
	}
	for _, v := range vs {
		if len(v.seq) > maxSeqLen {
			b.opaque = true
			break
		}
	}
	return vs
}

func (b *summaryBuilder) dedupe(vs []pvar) []pvar {
	seen := map[string]int{}
	var out []pvar
	for _, v := range vs {
		if i, ok := seen[v.key()]; ok {
			if v.dep < out[i].dep {
				out[i] = v
			}
			continue
		}
		seen[v.key()] = len(out)
		out = append(out, v)
	}
	return out
}

// cross concatenates every suffix onto every alive prefix.
func (b *summaryBuilder) cross(prefixes, suffixes []pvar) []pvar {
	var out []pvar
	for _, p := range prefixes {
		for _, s := range suffixes {
			v := pvar{
				seq:    append(append([]string{}, p.seq...), s.seq...),
				dep:    maxDep(p.dep, s.dep),
				params: p.params | s.params,
				selPos: p.selPos,
				term:   s.term,
			}
			if s.selPos != token.NoPos {
				v.selPos = s.selPos
			}
			out = append(out, v)
		}
	}
	return b.cap(b.dedupe(out))
}

// condClass classifies a branch condition through the taint engine.
func (b *summaryBuilder) condClass(e ast.Expr) (cls uint8, params TaintMask) {
	if e == nil {
		return depNone, 0
	}
	m := b.a.exprMask(e)
	if m.HasRank() {
		return depRank, 0
	}
	if m.ParamBits() != 0 {
		return depParam, m.ParamBits()
	}
	return depNone, 0
}

// labelArms applies a branch's condition class to its deduped arm
// variants. A single distinct non-abort outcome needs no label — the
// selection cannot matter. Rank-selected arms that all run to the arm's
// end are judged immediately (the mismatch is local); arms with early
// returns defer to the function-end check via the labels.
func (b *summaryBuilder) labelArms(arms []pvar, cls uint8, params TaintMask, pos token.Pos) []pvar {
	arms = b.dedupe(arms)
	distinct := 0
	allAlive := true
	for _, v := range arms {
		if v.term == termAbort {
			continue
		}
		distinct++
		if v.term != termNone {
			allAlive = false
		}
	}
	if distinct <= 1 || cls == depNone {
		return arms
	}
	if cls == depRank && allAlive {
		var a0, a1 pvar
		found := 0
		for _, v := range arms {
			if v.term == termAbort {
				continue
			}
			if found == 0 {
				a0 = v
			} else if found == 1 {
				a1 = v
			}
			found++
		}
		b.a.report(pos,
			"rank-dependent control flow yields mismatched collective sequences: %s vs %s; every rank must enter the same collectives in the same order — hoist the collective out of the rank-conditional path or guard it with a rank-uniform condition",
			seqString(a0.seq), seqString(a1.seq))
		// Collapse to one arm so the divergence is reported once, not
		// re-reported through every downstream comparison.
		return arms[:1]
	}
	for i := range arms {
		if arms[i].term == termAbort {
			continue
		}
		if cls == depRank {
			arms[i].dep = depRank
			arms[i].selPos = pos
		} else if arms[i].dep < depRank {
			arms[i].dep = maxDep(arms[i].dep, depParam)
			arms[i].params |= params
		}
	}
	return arms
}

func (b *summaryBuilder) stmt(s ast.Stmt, cur []pvar) []pvar {
	if s == nil || b.opaque {
		return cur
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)
	case *ast.ExprStmt:
		return b.exprCalls(s.X, cur)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			cur = b.exprCalls(e, cur)
		}
		for _, e := range s.Lhs {
			cur = b.exprCalls(e, cur)
		}
		return cur
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						cur = b.exprCalls(v, cur)
					}
				}
			}
		}
		return cur
	case *ast.IncDecStmt:
		return b.exprCalls(s.X, cur)
	case *ast.SendStmt:
		cur = b.exprCalls(s.Chan, cur)
		return b.exprCalls(s.Value, cur)
	case *ast.GoStmt:
		return b.exprCalls(s.Call, cur)
	case *ast.DeferStmt:
		// Approximation: deferred collectives are emitted at the defer
		// site. The relative order is off by the function tail, but it
		// is off identically on every path, so matching still holds.
		return b.exprCalls(s.Call, cur)
	case *ast.LabeledStmt:
		return b.stmt(s.Stmt, cur)
	case *ast.IfStmt:
		return b.ifStmt(s, cur)
	case *ast.ForStmt:
		return b.forStmt(s, cur)
	case *ast.RangeStmt:
		return b.rangeStmt(s, cur)
	case *ast.SwitchStmt:
		return b.switchStmt(s, cur)
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(s, cur)
	case *ast.SelectStmt:
		return b.selectStmt(s, cur)
	case *ast.ReturnStmt:
		return b.returnStmt(s, cur)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK, token.CONTINUE:
			if s.Label != nil {
				// A labeled target may be any enclosing statement; give
				// up on the function rather than risk a wrong comparison.
				b.opaque = true
			} else if s.Tok == token.BREAK {
				return terminate(cur, termBreak)
			} else {
				return terminate(cur, termContinue)
			}
		case token.GOTO:
			// goto breaks the structured walk; give up on the function
			// rather than risk a wrong comparison.
			b.opaque = true
		}
		return cur
	default:
		return cur
	}
}

func terminate(vs []pvar, t termKind) []pvar {
	out := make([]pvar, len(vs))
	for i, v := range vs {
		v.term = t
		out[i] = v
	}
	return out
}

func (b *summaryBuilder) returnStmt(s *ast.ReturnStmt, cur []pvar) []pvar {
	for _, e := range s.Results {
		cur = b.exprCalls(e, cur)
	}
	t := termReturn
	if b.returnsError(s) {
		t = termAbort
	}
	// Paths a result expression already ended (a panic, a callee that
	// always aborts) keep their termination.
	alive, done := splitVars(cur)
	return append(done, terminate(alive, t)...)
}

// returnsError reports whether the return statement carries a non-nil
// error in the function's final error result — in this codebase that is
// a cluster abort (mpsim joins rank errors and tears the run down), not
// a divergent path, so such paths are excluded from sequence matching.
// An error that is the result of a call entering a collective on this
// very path (`return r.CollectiveWrite(...)`, or a helper that may) is
// not an abort: it is nil whenever the collective succeeds.
func (b *summaryBuilder) returnsError(s *ast.ReturnStmt) bool {
	if b.sig == nil || b.sig.Results().Len() == 0 {
		return false
	}
	last := b.sig.Results().At(b.sig.Results().Len() - 1)
	named, ok := last.Type().(*types.Named)
	if !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return false
	}
	if len(s.Results) != b.sig.Results().Len() {
		return false // naked return: assume normal
	}
	switch le := ast.Unparen(s.Results[len(s.Results)-1]).(type) {
	case *ast.Ident:
		return le.Name != "nil"
	case *ast.CallExpr:
		return !b.entersCollective(le)
	}
	return true
}

// entersCollective reports whether the call is an mpsim collective or a
// module function whose summary may reach one.
func (b *summaryBuilder) entersCollective(call *ast.CallExpr) bool {
	if name, ok := methodOn(b.a.p.Info, call, mpsimPath, "Rank"); ok {
		return collectiveMethods[name]
	}
	fn := staticCallee(b.a.p.Info, call)
	if fn == nil {
		return false
	}
	sum, ok := b.a.summaryFor(fn)
	return ok && sum.May
}

func (b *summaryBuilder) ifStmt(s *ast.IfStmt, cur []pvar) []pvar {
	cur = b.stmt(s.Init, cur)
	cur = b.exprCalls(s.Cond, cur)
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	cls, params := b.condClass(s.Cond)
	thenV := b.stmts(s.Body.List, []pvar{{}})
	elseV := []pvar{{}}
	if s.Else != nil {
		elseV = b.stmt(s.Else, []pvar{{}})
	}
	if b.opaque {
		return nil
	}
	arms := b.labelArms(append(thenV, elseV...), cls, params, s.Pos())
	return append(done, b.cross(alive, arms)...)
}

func (b *summaryBuilder) switchStmt(s *ast.SwitchStmt, cur []pvar) []pvar {
	cur = b.stmt(s.Init, cur)
	if s.Tag != nil {
		cur = b.exprCalls(s.Tag, cur)
	}
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	var m TaintMask
	if s.Tag != nil {
		m = b.a.exprMask(s.Tag)
	}
	var arms []pvar
	hasDefault := false
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		for _, e := range clause.List {
			m |= b.a.exprMask(e)
		}
		arms = append(arms, b.stmts(clause.Body, []pvar{{}})...)
	}
	if !hasDefault {
		arms = append(arms, pvar{})
	}
	if b.opaque {
		return nil
	}
	cls, params := maskClass(m)
	arms = b.labelArms(exitBreaks(arms), cls, params, s.Pos())
	return append(done, b.cross(alive, arms)...)
}

func (b *summaryBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, cur []pvar) []pvar {
	cur = b.stmt(s.Init, cur)
	var m TaintMask
	switch asg := s.Assign.(type) {
	case *ast.AssignStmt:
		if len(asg.Rhs) == 1 {
			m = b.a.exprMask(asg.Rhs[0])
		}
	case *ast.ExprStmt:
		m = b.a.exprMask(asg.X)
	}
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	var arms []pvar
	hasDefault := false
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		arms = append(arms, b.stmts(clause.Body, []pvar{{}})...)
	}
	if !hasDefault {
		arms = append(arms, pvar{})
	}
	if b.opaque {
		return nil
	}
	cls, params := maskClass(m)
	arms = b.labelArms(exitBreaks(arms), cls, params, s.Pos())
	return append(done, b.cross(alive, arms)...)
}

// selectStmt treats comm-clause selection as rank-uniform: select in
// this codebase appears only in host-side plumbing, never between
// collectives, and labeling scheduler nondeterminism as rank-dependence
// would drown real findings. The droppederr analyzer still sees inside
// the arms.
func (b *summaryBuilder) selectStmt(s *ast.SelectStmt, cur []pvar) []pvar {
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	var arms []pvar
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CommClause)
		start := []pvar{{}}
		if clause.Comm != nil {
			start = b.stmt(clause.Comm, start)
		}
		arms = append(arms, b.stmts(clause.Body, start)...)
	}
	if len(arms) == 0 {
		arms = []pvar{{}}
	}
	if b.opaque {
		return nil
	}
	arms = b.dedupe(exitBreaks(arms))
	return append(done, b.cross(alive, arms)...)
}

func maskClass(m TaintMask) (uint8, TaintMask) {
	if m.HasRank() {
		return depRank, 0
	}
	if m.ParamBits() != 0 {
		return depParam, m.ParamBits()
	}
	return depNone, 0
}

// loopSuffixes folds a loop body's variants into the suffix set the
// loop contributes: one digest element per uniform-count loop carrying
// collectives, zero-or-one alternatives for param-dependent counts, and
// the body's function-exiting variants (return/abort from inside the
// loop) passed through for the function-end comparison.
func (b *summaryBuilder) loopSuffixes(bodyV []pvar, cls uint8, params TaintMask, pos token.Pos) []pvar {
	// Judge intra-body divergence now: the collapse below erases it.
	b.checkVariants(bodyV)

	may := false
	var exits []pvar
	for _, v := range bodyV {
		if len(v.seq) > 0 {
			may = true
		}
		if v.term == termReturn || v.term == termAbort {
			exits = append(exits, v)
		}
	}
	if !may {
		return append([]pvar{{}}, exits...)
	}
	switch cls {
	case depRank:
		b.a.report(pos,
			"collectives inside a loop whose iteration count is rank-dependent: ranks execute different numbers of collective rounds and the cluster deadlocks; derive the bound collectively (e.g. an allreduced maximum) as the collective-write rounds do")
		return append([]pvar{{seq: []string{b.loopElem(bodyV)}}}, exits...)
	case depParam:
		return append([]pvar{
			{dep: depParam, params: params},
			{seq: []string{b.loopElem(bodyV)}, dep: depParam, params: params},
		}, exits...)
	default:
		return append([]pvar{{seq: []string{b.loopElem(bodyV)}}}, exits...)
	}
}

// loopElem digests a loop body's sequence set into one stable element.
func (b *summaryBuilder) loopElem(bodyV []pvar) string {
	var keys []string
	seen := map[string]bool{}
	for _, v := range bodyV {
		if v.term == termAbort {
			continue
		}
		k := strings.Join(v.seq, " ")
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	body := strings.Join(keys, " | ")
	if len(body) > 80 {
		h := fnv.New32a()
		h.Write([]byte(body))
		body = fmt.Sprintf("#%08x", h.Sum32())
	}
	return "loop{" + body + "}"
}

func (b *summaryBuilder) forStmt(s *ast.ForStmt, cur []pvar) []pvar {
	cur = b.stmt(s.Init, cur)
	if s.Cond != nil {
		cur = b.exprCalls(s.Cond, cur)
	}
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	var m TaintMask
	if s.Cond != nil {
		m = b.a.exprMask(s.Cond)
	}
	body := s.Body.List
	if s.Post != nil {
		body = append(append([]ast.Stmt{}, body...), s.Post)
	}
	bodyV := b.stmts(body, []pvar{{}})
	if b.opaque {
		return nil
	}
	cls, params := maskClass(m)
	suffixes := b.loopSuffixes(normalizeLoopExits(bodyV), cls, params, s.Pos())
	return append(done, b.cross(alive, b.dedupe(suffixes))...)
}

func (b *summaryBuilder) rangeStmt(s *ast.RangeStmt, cur []pvar) []pvar {
	cur = b.exprCalls(s.X, cur)
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	m := b.a.exprMask(s.X)
	bodyV := b.stmts(s.Body.List, []pvar{{}})
	if b.opaque {
		return nil
	}
	cls, params := maskClass(m)
	suffixes := b.loopSuffixes(normalizeLoopExits(bodyV), cls, params, s.Pos())
	return append(done, b.cross(alive, b.dedupe(suffixes))...)
}

// normalizeLoopExits rewrites break/continue terminations into ordinary
// iteration endings: they end one pass through the body, which is all a
// body variant describes. Return/abort pass through untouched — they
// exit the whole function.
func normalizeLoopExits(vs []pvar) []pvar {
	return resume(vs, termBreak, termContinue)
}

// exitBreaks resumes the paths an unlabeled break ends inside a switch,
// type switch or select arm: the break exits that statement, so the
// path falls through to the statement after it.
func exitBreaks(vs []pvar) []pvar {
	return resume(vs, termBreak)
}

// resume turns the given terminations back into running paths.
func resume(vs []pvar, kinds ...termKind) []pvar {
	out := make([]pvar, len(vs))
	for i, v := range vs {
		for _, k := range kinds {
			if v.term == k {
				v.term = termNone
			}
		}
		out[i] = v
	}
	return out
}

// --- call extraction ---

// evalCalls visits every call expression under n in evaluation order
// (operands before the call), skipping function-literal bodies.
func evalCalls(n ast.Node, visit func(*ast.CallExpr)) {
	if n == nil {
		return
	}
	switch e := n.(type) {
	case *ast.FuncLit:
		return
	case *ast.CallExpr:
		evalCalls(e.Fun, visit)
		for _, arg := range e.Args {
			evalCalls(arg, visit)
		}
		visit(e)
	default:
		children(n, func(c ast.Node) { evalCalls(c, visit) })
	}
}

// exprCalls threads cur through every call inside the expression.
func (b *summaryBuilder) exprCalls(e ast.Expr, cur []pvar) []pvar {
	if e == nil || b.opaque {
		return cur
	}
	evalCalls(e, func(call *ast.CallExpr) {
		if !b.opaque {
			cur = b.applyCall(call, cur)
		}
	})
	return cur
}

// applyCall appends a call's collective contribution to the alive
// variants: intrinsic collectives as one element, module callees by
// inlining their summary (param-selected callee variants resolved
// against argument taint), opaque callees as one opaque element.
func (b *summaryBuilder) applyCall(call *ast.CallExpr, cur []pvar) []pvar {
	alive, done := splitVars(cur)
	if len(alive) == 0 {
		return done
	}
	// panic(): a cluster abort, like an error return.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := objOf(b.a.p.Info, id).(*types.Builtin); isBuiltin {
			return append(done, terminate(alive, termAbort)...)
		}
	}
	if name, ok := methodOn(b.a.p.Info, call, mpsimPath, "Rank"); ok && collectiveMethods[name] {
		return append(done, b.cross(alive, []pvar{{seq: []string{name}}})...)
	}
	fn := staticCallee(b.a.p.Info, call)
	if fn == nil {
		return append(done, alive...)
	}
	sum, ok := b.a.summaryFor(fn)
	if !ok {
		return append(done, alive...)
	}
	pkgPath, key := funcKeyOf(fn)
	if sum.Opaque {
		if sum.May {
			return append(done, b.cross(alive, []pvar{{seq: []string{"call:" + pkgPath + "." + key}}})...)
		}
		return append(done, alive...)
	}
	if len(sum.Variants) == 0 {
		// Every path through the callee aborts the cluster.
		return append(done, terminate(alive, termAbort)...)
	}
	if !sum.May {
		return append(done, alive...)
	}
	suffixes := b.resolveCall(call, sum)
	return append(done, b.cross(alive, suffixes)...)
}

// resolveCall maps a callee's exported variants into caller-side
// suffixes, settling param-selected variants against the actual
// arguments' taint. A rank-tainted argument selecting between distinct
// callee sequences is the cross-frame mismatch; it is judged right here
// at the call site.
func (b *summaryBuilder) resolveCall(call *ast.CallExpr, sum Summary) []pvar {
	slotArgs := callSlotArgs(b.a.p.Info, call)
	suffixes := make([]pvar, 0, len(sum.Variants))
	rankSelected := false
	for _, v := range sum.Variants {
		sfx := pvar{seq: v.Seq}
		if v.Dep == depParam {
			var m TaintMask
			for _, slot := range v.Params.slots() {
				if slot < len(slotArgs) && slotArgs[slot] != nil {
					m |= b.a.exprMask(slotArgs[slot])
				}
			}
			if m.HasRank() {
				sfx.dep, sfx.selPos = depRank, call.Pos()
				rankSelected = true
			} else if m.ParamBits() != 0 {
				sfx.dep, sfx.params = depParam, m.ParamBits()
			}
		}
		suffixes = append(suffixes, sfx)
	}
	suffixes = b.dedupe(suffixes)
	if rankSelected && len(suffixes) > 1 {
		name := "helper"
		if fn := staticCallee(b.a.p.Info, call); fn != nil {
			name = fn.Name()
		}
		b.a.report(call.Pos(),
			"call to %s selects between mismatched collective sequences (%s vs %s) on a rank-tainted argument; the divergence crosses the call boundary — pass a rank-uniform value or restructure the helper",
			name, seqString(suffixes[0].seq), seqString(suffixes[1].seq))
		return suffixes[:1]
	}
	return suffixes
}

func maxDep(a, c uint8) uint8 {
	if a > c {
		return a
	}
	return c
}
