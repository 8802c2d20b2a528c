package msvet

// sendrecv.go checks tag-constant consistency between paired Send/Recv
// sites. mpsim messages match on (peer, tag): a Send whose constant tag
// no Recv-family site anywhere in the repo ever asks for strands the
// message forever, and the receiving side blocks on a tag nobody sends
// — the point-to-point cousin of the collective-mismatch deadlock (the
// merge's tagMergeBase discipline exists precisely to keep these pen
// pals aligned).
//
// Only statically constant tags participate: Run records every tag
// expression that constant-folds under the key "v:<value>" in the run's
// Facts, and after every package is analyzed the Finish hook matches
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
)

// sendMethods / recvMethods are the Rank point-to-point families; the
// tag is argument index 1 in every one of them.
var sendMethods = map[string]bool{"Send": true, "TrySend": true}
var recvMethods = map[string]bool{"Recv": true, "TryRecv": true, "RecvTimeout": true}

// SendrecvAnalyzer reports constant Send tags with no matching Recv
// site and vice versa. Run collects each package's tag sites; the
// verdict is global, so it lives in the Finish hook, which runs once
// after every package.
var SendrecvAnalyzer = &Analyzer{
	Name: "sendrecv",
	Doc: "matches constant Send tags against Recv/TryRecv/RecvTimeout tags " +
		"repo-wide; a one-sided tag constant strands messages or blocks the receiver",
	Run:    runSendrecv,
	Finish: finishSendrecv,
}

// A TagUse is one Send/Recv-family call site with a constant tag.
// Allowed marks sites covered by a justified //msvet:allow sendrecv
// annotation: their key still pairs with the other side, but Finish
// never reports them.
type TagUse struct {
	Key     string
	Expr    string
	Pos     token.Position
	Allowed bool
}

// runSendrecv records every statically-constant tag site of the
// package into the run's Facts.
func runSendrecv(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := methodOn(pass.Info, call, mpsimPath, "Rank")
			if !ok || (!sendMethods[name] && !recvMethods[name]) || len(call.Args) < 2 {
				return true
			}
			tagExpr := call.Args[1]
			key := tagKeyOf(pass, tagExpr)
			if key == "" {
				return true
			}
			use := TagUse{
				Key:     key,
				Expr:    name + "(tag " + exprString(pass.Fset, tagExpr) + ")",
				Pos:     pass.Fset.Position(call.Pos()),
				Allowed: pass.Allowed(call.Pos()),
			}
			if sendMethods[name] {
				pass.Facts.SendTags = append(pass.Facts.SendTags, use)
			} else {
				pass.Facts.RecvTags = append(pass.Facts.RecvTags, use)
			}
			return true
		})
	}
	return nil
}

// tagKeyOf returns the stable key of a tag expression, or "" when the
// tag is dynamic. Constant-folding means `tagReduce+1` on one side and
// the folded literal on the other still agree.
func tagKeyOf(pass *Pass, e ast.Expr) string {
	tv, ok := pass.Info.Types[e]
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

// finishSendrecv runs once over the run's facts and reports every
// non-allowed constant tag with no counterpart on the other side.
func finishSendrecv(facts *Facts) []Finding {
	sendKeys, recvKeys := map[string]bool{}, map[string]bool{}
	for _, t := range facts.SendTags {
		sendKeys[t.Key] = true
	}
	for _, t := range facts.RecvTags {
		recvKeys[t.Key] = true
	}
	var findings []Finding
	report := func(tags []TagUse, other map[string]bool, otherSide string) {
		for _, t := range tags {
			if !t.Allowed && !other[t.Key] {
				findings = append(findings, Finding{
					Pos:      t.Pos,
					Analyzer: "sendrecv",
					Message: t.Expr + " has no " + otherSide +
						" using the same tag constant anywhere in the module; mismatched tags strand the message and block the peer",
				})
			}
		}
	}
	report(facts.SendTags, recvKeys, "Recv-family site")
	report(facts.RecvTags, sendKeys, "Send site")
	sortFindings(findings)
	return findings
}
