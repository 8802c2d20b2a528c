package msvet

// sendrecv.go checks tag-constant consistency between paired Send/Recv
// sites. mpsim messages match on (peer, tag): a Send whose constant tag
// no Recv-family site anywhere in the repo ever asks for strands the
// message forever, and the receiving side blocks on a tag nobody sends
// — the point-to-point cousin of the collective-mismatch deadlock (the
// merge's tagMergeBase discipline exists precisely to keep these pen
// pals aligned).
//
// Only statically constant tags participate: a tag expression that
// constant-folds is recorded under the key "v:<value>" in the package
// facts, and after every package is analyzed the Finish hook matches
// the repo-wide send-key set against the recv-key set. Dynamic tags
// (computed per round, per block, or threaded through parameters, as
// the tree collectives and the merge protocol do) are skipped: both
// sides derive them from the same formula, which this analyzer cannot
// check and therefore does not guess about.

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"sort"
)

// sendMethods / recvMethods are the Rank point-to-point families; the
// tag is argument index 1 in every one of them.
var sendMethods = map[string]bool{"Send": true, "TrySend": true}
var recvMethods = map[string]bool{
	"Recv": true, "TryRecv": true, "RecvTimeout": true, "PeekArrival": true,
}

// SendrecvAnalyzer reports constant Send tags with no matching Recv
// site and vice versa. Collection happens during fact computation (so
// packages analyzed only as dependencies contribute too); the verdict
// is global, so it lives in the Finish hook, which runs once after
// every package's facts exist.
var SendrecvAnalyzer = &Analyzer{
	Name: "sendrecv",
	Doc: "matches constant Send tags against Recv/TryRecv/RecvTimeout/PeekArrival tags " +
		"repo-wide; a one-sided tag constant strands messages or blocks the receiver",
	Run:    runSendrecv,
	Finish: finishSendrecv,
}

// runSendrecv only services the allow lifecycle: a justified
// //msvet:allow sendrecv annotation on a recorded tag site counts as
// used (the site is excluded from Finish matching), so it is never
// reported stale while it still covers a live site.
func runSendrecv(pass *Pass) error {
	if pass.state == nil {
		return nil
	}
	for _, t := range pass.state.facts.SendTags {
		if t.Allowed {
			pass.MarkAllowed(t.File, t.Line)
		}
	}
	for _, t := range pass.state.facts.RecvTags {
		if t.Allowed {
			pass.MarkAllowed(t.File, t.Line)
		}
	}
	return nil
}

// collectTags records every statically-constant tag site of the package
// into its facts. Called from analyzePackage.
func (a *pkgAnalysis) collectTags() {
	for _, f := range a.p.Files {
		allowsByLine, _ := parseAllows(a.p.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := methodOn(a.p.Info, call, mpsimPath, "Rank")
			if !ok || (!sendMethods[name] && !recvMethods[name]) || len(call.Args) < 2 {
				return true
			}
			tagExpr := call.Args[1]
			key := tagKeyOf(a, tagExpr)
			if key == "" {
				return true
			}
			pos := a.p.Fset.Position(call.Pos())
			allowed := false
			if rec := allowsByLine["sendrecv"][pos.Line]; rec != nil && rec.justified {
				allowed = true
			}
			use := TagUse{
				Key:     key,
				Expr:    name + "(tag " + exprString(a.p.Fset, tagExpr) + ")",
				File:    pos.Filename,
				Line:    pos.Line,
				Col:     pos.Column,
				Allowed: allowed,
			}
			if sendMethods[name] {
				a.facts.SendTags = append(a.facts.SendTags, use)
			} else {
				a.facts.RecvTags = append(a.facts.RecvTags, use)
			}
			return true
		})
	}
}

// tagKeyOf returns the stable key of a tag expression, or "" when the
// tag is dynamic. Constant-folding means `tagReduce+1` on one side and
// the folded literal on the other still agree.
func tagKeyOf(a *pkgAnalysis, e ast.Expr) string {
	tv, ok := a.p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return ""
	}
	return "v:" + tv.Value.ExactString()
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// finishSendrecv runs once over the completed fact store and reports
// every non-allowed constant tag with no counterpart on the other side.
func finishSendrecv(store *FactStore) []Finding {
	sendKeys, recvKeys := map[string]bool{}, map[string]bool{}
	var sends, recvs []TagUse
	for _, path := range store.Paths() {
		facts := store.factsOf(path)
		if facts == nil {
			continue
		}
		for _, t := range facts.SendTags {
			sendKeys[t.Key] = true
			sends = append(sends, t)
		}
		for _, t := range facts.RecvTags {
			recvKeys[t.Key] = true
			recvs = append(recvs, t)
		}
	}
	var findings []Finding
	add := func(t TagUse, other string) {
		if t.Allowed {
			return
		}
		findings = append(findings, Finding{
			Pos:      token.Position{Filename: t.File, Line: t.Line, Column: t.Col},
			Analyzer: "sendrecv",
			Message: t.Expr + " has no " + other +
				" using the same tag constant anywhere in the module; mismatched tags strand the message and block the peer",
		})
	}
	for _, t := range sends {
		if !recvKeys[t.Key] {
			add(t, "Recv-family site")
		}
	}
	for _, t := range recvs {
		if !sendKeys[t.Key] {
			add(t, "Send site")
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings
}
