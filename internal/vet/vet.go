// Package vet implements muxvet, this repository's static-analysis
// suite. Every headline number in the repo — frontier goldens, the
// Fig. 13 comparator, TestTraceDeterminism — assumes byte-identical
// replay, and the hot-path work in PR 7 assumes the event loop stays
// closure- and allocation-free. Those invariants used to live only in
// reviewers' heads; the analyzers here machine-check them:
//
//   - wallclock:  no wall-clock time or process-global randomness in
//     simulation-critical packages — virtual time comes from the event
//     loop, randomness from an explicitly seeded source.
//   - maprange:   no map-iteration order leaking into output, event
//     schedules, or order-sensitive reductions.
//   - hotclosure: no per-event closures or fmt formatting on pooled
//     hot paths where the closure-free AtFunc/AfterFunc/LaunchFn
//     seams exist.
//   - poolsafety: no retaining pooled records past their release
//     point, and no touching a Handle's slot without the generation
//     check.
//   - tracewrite: no writes to a shared trace's requests or page lists
//     outside internal/workload — runs share traces, and KV pools keep
//     page lists by reference.
//   - directive:  the exemption directives themselves are well-formed
//     (a reason is mandatory).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is hand-rolled on the standard
// library so the repo stays dependency-free; cmd/muxvet adapts it to
// the `go vet -vettool` protocol.
//
// Exemptions are explicit and reasoned:
//
//	x := time.Now() //muxvet:allow wallclock replay anchors to a wall-clock base
//	//muxvet:ordered keys are unique request IDs, reduction is commutative
//	for id := range seen { ... }
//
// A trailing directive exempts its own line; a directive on a line of
// its own exempts the next line. The reason is mandatory — a
// directive without one is itself a diagnostic.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Name is the identifier used by
// //muxvet:allow directives and the -list roster; the first line of
// Doc is the one-line summary shown there.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass hands one typechecked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the canonical import path used for package
	// classification (Pkg.Path may be shadowed in tests).
	Path string

	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// SourceFiles returns the pass's non-test files. The analyzers guard
// production code paths; tests are free to read wall clocks and build
// throwaway closures (determinism of results is pinned end-to-end by
// the golden suites).
func (p *Pass) SourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [muxvet:%s]", d.Pos, d.Message, d.Analyzer)
}

// allAnalyzers is populated in init to break the initialization cycle
// between the Directive analyzer (which validates directives against
// the roster) and the roster itself.
var allAnalyzers []*Analyzer

func init() {
	allAnalyzers = []*Analyzer{Wallclock, MapRange, HotClosure, PoolSafety, TraceWrite, Directive}
}

// Analyzers returns the full roster in stable order.
func Analyzers() []*Analyzer { return allAnalyzers }

// byName maps analyzer names for directive validation.
func byName() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// A Package is one loaded, typechecked unit ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyze runs the analyzers over pkg, applies //muxvet: exemption
// directives, and returns the surviving diagnostics in (file, line,
// column, analyzer) order.
func Analyze(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	var all []Diagnostic
	for _, a := range analyzers {
		name := a.Name
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			report: func(pos token.Pos, msg string) {
				all = append(all, Diagnostic{Analyzer: name, Pos: pkg.Fset.Position(pos), Message: msg})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("muxvet %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	kept := all[:0]
	for _, d := range all {
		if !dirs.suppresses(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept, nil
}

// Package classification ---------------------------------------------------

// modulePath anchors classification; testdata stubs reuse the same
// import paths so the classifier is exercised verbatim in tests.
const modulePath = "muxwise"

// simCriticalPkgs are the packages whose behaviour feeds goldens,
// traces, and reports: everything inside the deterministic event loop.
// Wall-clock reads, unseeded randomness, and order-leaking map ranges
// are forbidden here.
var simCriticalPkgs = map[string]bool{
	modulePath:                           true,
	modulePath + "/internal/sim":         true,
	modulePath + "/internal/gpu":         true,
	modulePath + "/internal/kvcache":     true,
	modulePath + "/internal/metrics":     true,
	modulePath + "/internal/model":       true,
	modulePath + "/internal/estimator":   true,
	modulePath + "/internal/roofline":    true,
	modulePath + "/internal/serve":       true,
	modulePath + "/internal/cluster":     true,
	modulePath + "/internal/cluster/epp": true,
	modulePath + "/internal/frontier":    true,
	modulePath + "/internal/obs":         true,
	modulePath + "/internal/par":         true,
	modulePath + "/internal/workload":    true,
	modulePath + "/internal/core":        true,
	modulePath + "/internal/loong":       true,
	modulePath + "/internal/pdsep":       true,
	modulePath + "/internal/chunked":     true,
	modulePath + "/internal/temporal":    true,
	modulePath + "/internal/windserve":   true,
	modulePath + "/internal/nanoflow":    true,
	modulePath + "/internal/experiments": true,
	modulePath + "/internal/arena":       true,
}

// hotPathPkgs are the pooled hot-path packages from PR 7, plus the
// per-request routing pipeline: per-event closures, fmt formatting,
// and interface boxing regress the alloc gate here, so muxvet flags
// them before the benchmark does.
var hotPathPkgs = map[string]bool{
	modulePath + "/internal/sim":         true,
	modulePath + "/internal/gpu":         true,
	modulePath + "/internal/metrics":     true,
	modulePath + "/internal/kvcache":     true,
	modulePath + "/internal/par":         true,
	modulePath + "/internal/cluster/epp": true,
	// roofline predictions run on every engine step (the cost-model
	// seam), so the analytical model is held to the same no-alloc bar,
	// and so are the per-kernel cost formulas under it.
	modulePath + "/internal/roofline": true,
	modulePath + "/internal/model":    true,
	// The engine skeleton and MuxWise's engine run at every arrival,
	// layer and decode boundary, and take their per-request records from
	// the arena package's arenas and pools.
	modulePath + "/internal/serve": true,
	modulePath + "/internal/core":  true,
	modulePath + "/internal/arena": true,
}

// IsSimCritical reports whether the package at path must stay
// deterministic (wallclock and maprange apply).
func IsSimCritical(path string) bool { return simCriticalPkgs[path] }

// IsHotPath reports whether the package at path is a pooled hot-path
// package (hotclosure applies; poolsafety's in-package rules apply).
func IsHotPath(path string) bool { return hotPathPkgs[path] }

// Shared AST helpers --------------------------------------------------------

// importedPkg returns the import path of the package that x (a
// selector base) names, or "" when x is not a package reference.
func (p *Pass) importedPkg(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// funcDecls visits every function declaration with a body in f.
func funcDecls(f *ast.File, visit func(*ast.FuncDecl)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd)
		}
	}
}

// enclosingFunc returns the function declaration containing pos.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// objectOf resolves an identifier to its object (use or def).
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// exprKey returns a stable textual key for an expression, used to
// match repeated references to the same receiver (h.Pending() guarding
// h.ev) even when the base is itself a selector.
func exprKey(e ast.Expr) string {
	return types.ExprString(e)
}
