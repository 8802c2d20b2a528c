package msvet

// facts.go is the package-level fact store of the interprocedural
// engine (DESIGN §16). Analyzing one package produces a PackageFacts
// summary — per-function rank-taint masks, per-function collective-
// sequence summaries, field-taint bits, and the Send/Recv tag table —
// that importing packages consume instead of re-reading the callee's
// source. The shape mirrors golang.org/x/tools/go/analysis Facts: facts
// are computed once per package in dependency order and are keyed by
// stable string object keys ("Name", "(T).Name", "pkg.(T).field"), so a
// caller resolves a callee's fact from the callee's types.Func alone.

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// A TaintMask records where a value's rank-dependence can come from.
// Bit 0 is the rank-identity source itself (Rank.ID, the mpsim rank id
// field, or anything derived from them); bits 1..62 are the function's
// parameter slots (receiver first for methods), so a callee can report
// "my result is tainted iff argument i is" and the call site resolves
// the mask against the actual arguments.
type TaintMask uint64

// RankTaint is the rank-identity source bit.
const RankTaint TaintMask = 1

// maxParamSlots bounds the parameter slots a mask can express; flows
// through later parameters are dropped (never causing false positives,
// only missed findings in 63-parameter functions).
const maxParamSlots = 62

// ParamTaint returns the mask bit for parameter slot i, or 0 when the
// slot is out of the representable range.
func ParamTaint(slot int) TaintMask {
	if slot < 0 || slot >= maxParamSlots {
		return 0
	}
	return 1 << (uint(slot) + 1)
}

// HasRank reports whether the mask includes the rank-identity source.
func (m TaintMask) HasRank() bool { return m&RankTaint != 0 }

// ParamBits returns only the parameter-slot bits of the mask.
func (m TaintMask) ParamBits() TaintMask { return m &^ RankTaint }

// slots yields the parameter slot indices set in the mask.
func (m TaintMask) slots() []int {
	var out []int
	for i := 0; i < maxParamSlots; i++ {
		if m&ParamTaint(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Dependence classes for summary variants: how the path carrying a
// sequence was selected. This is the summary lattice's height-3 chain —
// none ⊑ param ⊑ rank. Two variants with different sequences are a
// finding only when joined at rank; param defers the verdict to call
// sites, which resolve it against argument taint.
const (
	depNone  uint8 = iota // unconditional, or selected by rank-uniform conditions
	depParam              // selected by a condition on a formal parameter
	depRank               // selected by a rank-derived condition
)

// A Variant is one possible ordered collective sequence through a
// function. Seq elements are mpsim collective method names, "loop{...}"
// digests for uniform-count loops, and "call:pkg.fn" markers for
// opaque callees that may perform collectives.
type Variant struct {
	Seq    []string
	Dep    uint8
	Params TaintMask
}

// A Summary is a function's collective-sequence fact: the set of
// distinct sequences reachable through it. Opaque is the lattice top —
// the function blew the enumeration caps (or recursion), so callers
// treat the whole call as one opaque element instead of inlining.
type Summary struct {
	Variants []Variant
	May      bool
	Opaque   bool
}

// A TagUse is one Send/Recv-family call site with a statically
// resolvable tag key: "v:<n>" for constant tags, "c:<pkg>.<name>" for
// tags built from a named tag-base constant. Dynamic tags are never
// recorded. Allowed marks sites covered by a justified
// //msvet:allow sendrecv annotation, so the repo-wide Finish matching
// can honor suppressions without re-reading source.
type TagUse struct {
	Key     string
	Expr    string
	File    string
	Line    int
	Col     int
	Allowed bool
}

// PackageFacts is everything one package exports to its importers.
// Function keys are "Name" for package-level functions and "(T).Name"
// for methods; field keys are "pkg.(T).field" (globally qualified,
// since any package can taint a field of an imported struct).
type PackageFacts struct {
	Path      string
	Taint     map[string][]TaintMask
	Fields    map[string]bool
	Summaries map[string]Summary
	SendTags  []TagUse
	RecvTags  []TagUse
}

func newPackageFacts(path string) *PackageFacts {
	return &PackageFacts{
		Path:      path,
		Taint:     map[string][]TaintMask{},
		Fields:    map[string]bool{},
		Summaries: map[string]Summary{},
	}
}

// funcKeyOf returns the fact key of a function within its package and
// the package path, or "" when the function has no stable key (no
// package, or a method on a non-named receiver).
func funcKeyOf(fn *types.Func) (pkgPath, key string) {
	if fn.Pkg() == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", ""
	}
	if recv := sig.Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil {
			return "", ""
		}
		return fn.Pkg().Path(), "(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path(), fn.Name()
}

// namedOf unwraps pointers to the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldKeyOf returns the global fact key of a struct field reached
// through a selection on recv, or "" when the owner is anonymous.
func fieldKeyOf(recv types.Type, field *types.Var) string {
	named := namedOf(recv)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + field.Name()
}

// A FactStore holds the analysis of every package touched by one pass
// and computes missing ones on demand in import order. It also keeps
// the module-wide field-taint set: field taint is the one fact that
// crosses between packages that need not import each other, so the
// store records which field keys were read while still clean, and the
// runner repeats the pass while any of them ended up tainted.
type FactStore struct {
	modPath string
	load    func(path string) (*Package, error)
	// entries maps an import path to its finished analysis; a nil value
	// marks an analysis in progress (a recursive request is an import
	// cycle).
	entries map[string]*factEntry
	// fields holds every rank-tainted field key: the seed of this pass
	// plus each finished package's own Fields.
	fields map[string]bool
	// cleanReads holds the field keys some finished package read while
	// they were not (yet) in fields.
	cleanReads map[string]bool
}

type factEntry struct {
	state *pkgAnalysis
	err   error
}

// NewFactStore creates a store for the module rooted at modPath; load
// resolves an import path to its type-checked package (the Loader).
func NewFactStore(modPath string, load func(path string) (*Package, error)) *FactStore {
	return &FactStore{
		modPath:    modPath,
		load:       load,
		entries:    map[string]*factEntry{},
		fields:     map[string]bool{},
		cleanReads: map[string]bool{},
	}
}

// inModule reports whether path belongs to the analyzed module — the
// only packages that can carry facts (nothing outside the module can
// import mpsim).
func (s *FactStore) inModule(path string) bool {
	return path == s.modPath || strings.HasPrefix(path, s.modPath+"/")
}

// Facts returns the facts of an import path, computing them (loading
// and analyzing the package, and transitively its module dependencies)
// on first use. Non-module paths yield empty facts.
func (s *FactStore) Facts(path string) (*PackageFacts, error) {
	if !s.inModule(path) {
		return newPackageFacts(path), nil
	}
	st, err := s.analyze(path, nil)
	if err != nil {
		return nil, err
	}
	return st.facts, nil
}

// EnsureFor computes (or returns) the analysis state of an
// already-loaded package.
func (s *FactStore) EnsureFor(p *Package) (*pkgAnalysis, error) {
	return s.analyze(p.Pkg.Path(), p)
}

// analyze memoises analyzePackage per import path, loading the package
// first when p is nil, and folds the finished package's field taint
// into the module-wide sets.
func (s *FactStore) analyze(path string, p *Package) (*pkgAnalysis, error) {
	if e, ok := s.entries[path]; ok {
		if e == nil {
			return nil, fmt.Errorf("msvet: import cycle through %s", path)
		}
		return e.state, e.err
	}
	s.entries[path] = nil
	var st *pkgAnalysis
	var err error
	if p == nil {
		p, err = s.load(path)
	}
	if err == nil {
		st = analyzePackage(p, s)
		for key := range st.facts.Fields {
			s.fields[key] = true
		}
		for key := range st.cleanReads {
			// A read of the package's own field is re-judged by its
			// local fixpoint, so only foreign taint can make it stale.
			if !st.facts.Fields[key] {
				s.cleanReads[key] = true
			}
		}
	}
	s.entries[path] = &factEntry{state: st, err: err}
	return st, err
}

// seedFields marks field keys tainted before any package is analyzed.
func (s *FactStore) seedFields(keys map[string]bool) {
	for key := range keys {
		s.fields[key] = true
	}
}

// staleFieldReads reports whether a package read a field as clean that
// another package has since tainted — its verdict may be wrong, and the
// pass must be repeated with the grown field set.
func (s *FactStore) staleFieldReads() bool {
	for key := range s.cleanReads {
		if s.fields[key] {
			return true
		}
	}
	return false
}

// Paths returns the import paths with completed facts, sorted.
func (s *FactStore) Paths() []string {
	var out []string
	for path, e := range s.entries {
		if e != nil && e.state != nil {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// factsOf returns completed facts without computing, or nil.
func (s *FactStore) factsOf(path string) *PackageFacts {
	if e := s.entries[path]; e != nil && e.state != nil {
		return e.state.facts
	}
	return nil
}

// taintFactFor resolves a callee's taint fact across package
// boundaries: the current package's in-progress facts for local
// callees, the store for imported ones. The bool reports whether a fact
// exists at all.
func (a *pkgAnalysis) taintFactFor(fn *types.Func) ([]TaintMask, bool) {
	pkgPath, key := funcKeyOf(fn)
	if key == "" {
		return nil, false
	}
	if pkgPath == a.p.Pkg.Path() {
		masks, ok := a.facts.Taint[key]
		return masks, ok
	}
	facts, err := a.store.Facts(pkgPath)
	if err != nil || facts == nil {
		return nil, false
	}
	masks, ok := facts.Taint[key]
	return masks, ok
}

// summaryFor resolves a callee's collective summary the same way.
func (a *pkgAnalysis) summaryFor(fn *types.Func) (Summary, bool) {
	pkgPath, key := funcKeyOf(fn)
	if key == "" {
		return Summary{}, false
	}
	if pkgPath == a.p.Pkg.Path() {
		if a.building[key] {
			// Recursive cycle: the callee's summary is opaque from
			// inside its own computation. May is resolved through the
			// call graph, which handles cycles itself.
			return Summary{Opaque: true, May: a.graph.reaches(key)}, true
		}
		if sum, ok := a.facts.Summaries[key]; ok {
			return sum, true
		}
		if fi, ok := a.funcIndex[key]; ok {
			a.buildSummary(fi)
			sum, ok := a.facts.Summaries[key]
			return sum, ok
		}
		return Summary{}, false
	}
	facts, err := a.store.Facts(pkgPath)
	if err != nil || facts == nil {
		return Summary{}, false
	}
	sum, ok := facts.Summaries[key]
	return sum, ok
}

func seqString(seq []string) string {
	if len(seq) == 0 {
		return "(no collectives)"
	}
	return "[" + strings.Join(seq, " ") + "]"
}
