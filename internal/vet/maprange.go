package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags map iteration whose order can leak into observable
// output in simulation-critical packages.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flag map iteration whose order can leak into output, schedules, or reductions\n\n" +
		"Go randomizes map iteration order per run. In simulation-critical\n" +
		"packages a map range is flagged when its body appends to a slice,\n" +
		"writes output, schedules events, sends on a channel, or accumulates\n" +
		"floating-point (non-associative rounding) — unless the collected\n" +
		"slice is sorted before use later in the same function, or the loop\n" +
		"carries a //muxvet:ordered <reason> directive. Also flagged:\n" +
		"extremum selection with a map-order-dependent tie-break (best = k\n" +
		"under a strict comparison) and calls through function values, whose\n" +
		"effects the analyzer cannot see. Writes keyed by the range key\n" +
		"itself (m[k] = v) are order-independent and not flagged.",
	Run: runMapRange,
}

// output-ish method names: anything that externalizes bytes in
// iteration order.
var outputMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
	"Encode":      true,
}

// scheduling seams: pushing events — or handing out the sequence
// numbers they will fire with — in map order permutes the event loop's
// (time, seq) tie-break and changes the whole replay.
var scheduleMethods = map[string]bool{
	"At":         true,
	"AtFunc":     true,
	"After":      true,
	"AfterFunc":  true,
	"Launch":     true,
	"LaunchFn":   true,
	"Reserve":    true,
	"Reschedule": true,
	"Schedule":   true,
}

var fmtOutputFuncs = map[string]bool{
	"Print":    true,
	"Printf":   true,
	"Println":  true,
	"Fprint":   true,
	"Fprintf":  true,
	"Fprintln": true,
}

// a trigger is one order-sensitive effect found in a map-range body.
type trigger struct {
	pos  token.Pos
	what string
	// appendTarget is set for append triggers when the destination is
	// a plain variable or field; such triggers are forgiven when the
	// target is sorted later in the same function.
	appendTarget ast.Expr
}

func runMapRange(p *Pass) error {
	if !IsSimCritical(p.Path) {
		return nil
	}
	for _, f := range p.SourceFiles() {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			trig := p.classifyMapRangeBody(rs)
			if trig == nil {
				return true
			}
			if trig.appendTarget != nil && p.sortedAfter(file, rs, trig.appendTarget) {
				return true
			}
			p.Reportf(rs.For, "iteration over map %s %s in simulation-critical package %q; map order is nondeterministic — iterate a sorted key slice or annotate //muxvet:ordered <reason>",
				types.ExprString(rs.X), trig.what, p.Path)
			return true
		})
	}
	return nil
}

// classifyMapRangeBody returns the first order-sensitive effect in the
// loop body, or nil when every effect is order-independent.
func (p *Pass) classifyMapRangeBody(rs *ast.RangeStmt) *trigger {
	loopVars := rangeVarObjs(p, rs)
	var found *trigger
	note := func(t *trigger) {
		if found == nil || t.pos < found.pos {
			found = t
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if found != nil && found.appendTarget == nil {
			return false // already have an unforgivable trigger
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if hasStrictCompare(n.Cond) {
				if pos, name, ok := p.extremumAssign(n, rs, loopVars); ok {
					note(&trigger{pos: pos, what: "selects an extremum into " + name + " whose tie-break depends on map order"})
				}
			}
		case *ast.CallExpr:
			if p.isBuiltinAppend(n) {
				note(&trigger{pos: n.Pos(), what: appendWhat(n), appendTarget: appendTargetExpr(n)})
				return true
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if v, isVar := p.objectOf(id).(*types.Var); isVar {
					if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
						note(&trigger{pos: n.Pos(), what: "calls through function value " + id.Name + ", whose effects the analyzer cannot prove order-independent"})
						return true
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if p.importedPkg(sel.X) == "fmt" && fmtOutputFuncs[sel.Sel.Name] {
					note(&trigger{pos: n.Pos(), what: "writes output (fmt." + sel.Sel.Name + ")"})
					return true
				}
				if p.isMethodCall(sel) {
					switch {
					case scheduleMethods[sel.Sel.Name]:
						note(&trigger{pos: n.Pos(), what: "schedules events (" + sel.Sel.Name + ")"})
					case outputMethods[sel.Sel.Name]:
						note(&trigger{pos: n.Pos(), what: "writes output (" + sel.Sel.Name + ")"})
					}
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if t := p.Info.TypeOf(lhs); t != nil && isFloaty(t) {
						note(&trigger{pos: n.Pos(), what: "accumulates floating-point " + types.ExprString(lhs) + " (rounding is order-sensitive)"})
					}
				}
			}
		case *ast.SendStmt:
			note(&trigger{pos: n.Pos(), what: "sends on a channel"})
		}
		return true
	})
	return found
}

// rangeVarObjs returns the objects bound to the range's key and value
// variables.
func rangeVarObjs(p *Pass, rs *ast.RangeStmt) []types.Object {
	var objs []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.objectOf(id); obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// hasStrictCompare reports whether expr contains a < or > comparison —
// the shape of an extremum scan, where equal keys tie-break on
// whichever the map visits first.
func hasStrictCompare(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

// extremumAssign looks inside a comparison-guarded if for a plain
// assignment that stores the range key or value (or something built
// from them) into a variable declared outside the loop: the classic
// "best = k" scan whose winner depends on iteration order when the
// comparison ties.
func (p *Pass) extremumAssign(ifs *ast.IfStmt, rs *ast.RangeStmt, loopVars []types.Object) (token.Pos, string, bool) {
	var pos token.Pos
	var name string
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		// RHS must carry the loop key/value; assignments of constants
		// (found = true) are idempotent and order-independent.
		refsLoopVar := false
		for _, rhs := range as.Rhs {
			ast.Inspect(rhs, func(rn ast.Node) bool {
				if id, ok := rn.(*ast.Ident); ok {
					obj := p.objectOf(id)
					for _, lv := range loopVars {
						if obj == lv {
							refsLoopVar = true
						}
					}
				}
				return !refsLoopVar
			})
		}
		if !refsLoopVar {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := p.objectOf(id)
			if obj == nil {
				continue
			}
			if obj.Pos() < rs.Pos() || obj.Pos() > rs.End() {
				pos, name = as.Pos(), id.Name
				return false
			}
		}
		return true
	})
	return pos, name, name != ""
}

func isFloaty(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isBuiltinAppend reports whether call invokes the append builtin.
func (p *Pass) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.objectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// isMethodCall reports whether sel is a method selection (as opposed
// to a package-qualified function).
func (p *Pass) isMethodCall(sel *ast.SelectorExpr) bool {
	return p.Info.Selections[sel] != nil
}

// appendTargetExpr extracts the destination of an append call when it
// is a plain variable or field reference; index expressions keyed by
// the loop variable (m2[k] = append(m2[k], v)) are per-key and
// order-independent, so they return nil target and the caller treats
// the trigger as forgiven only via sortedAfter (which needs an Expr)
// or a directive.
func appendTargetExpr(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	switch call.Args[0].(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return call.Args[0]
	}
	return nil
}

func appendWhat(call *ast.CallExpr) string {
	if len(call.Args) > 0 {
		return "appends to " + types.ExprString(call.Args[0])
	}
	return "appends to a slice"
}

// sortOrderingFuncs are package-level sort entry points; finding one
// applied to the append target after the loop forgives the append.
var sortOrderingFuncs = map[string]bool{
	// package sort
	"Strings": true, "Ints": true, "Float64s": true,
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	// package slices
	"SortFunc": true, "SortStableFunc": true,
}

// sortedAfter reports whether target is passed to a sort call after
// the range statement, inside the same function.
func (p *Pass) sortedAfter(file *ast.File, rs *ast.RangeStmt, target ast.Expr) bool {
	fd := enclosingFunc(file, rs.Pos())
	if fd == nil {
		return false
	}
	key := exprKey(target)
	obj := targetObj(p, target)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := p.importedPkg(sel.X)
		isSortPkg := pkg == "sort" || pkg == "slices"
		isSortMethod := p.isMethodCall(sel) && (sel.Sel.Name == "Sort" || sel.Sel.Name == "Stable")
		if !(isSortPkg && (sortOrderingFuncs[sel.Sel.Name] || sel.Sel.Name == "Sort")) && !isSortMethod {
			return true
		}
		// Does any argument (possibly wrapped, e.g. sort.Sort(byID(x))
		// or sort.Slice(x, less)) reference the append target?
		for _, arg := range call.Args {
			refs := false
			ast.Inspect(arg, func(an ast.Node) bool {
				switch an := an.(type) {
				case *ast.Ident:
					if obj != nil && p.objectOf(an) == obj {
						refs = true
					}
				case *ast.SelectorExpr:
					if exprKey(an) == key {
						refs = true
					}
				}
				return !refs
			})
			if refs {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// targetObj resolves a plain-identifier target to its object for
// precise matching; selector targets fall back to textual keys.
func targetObj(p *Pass, target ast.Expr) types.Object {
	if id, ok := target.(*ast.Ident); ok {
		return p.objectOf(id)
	}
	return nil
}
