package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceWrite keeps runs from writing the traces they replay.
var TraceWrite = &Analyzer{
	Name: "tracewrite",
	Doc: "flag writes to workload.Request fields and page lists outside internal/workload\n\n" +
		"A trace is generated once and shared: concurrent runs replay the same\n" +
		"requests, and kvcache.Pool keeps the page lists it is given by\n" +
		"reference. Outside internal/workload, which builds traces and paces\n" +
		"their arrivals, no code may assign to (or ++/--) a field of a\n" +
		"workload.Request reached through a pointer, nor write into an element\n" +
		"of its Pages, AllPages or Segments: by index, by copy, or by an\n" +
		"in-place slices or sort call. Copy the request or the list first.",
	Run: runTraceWrite,
}

const workloadPkg = modulePath + "/internal/workload"

// requestLists are the Request fields whose arrays runs share.
var requestLists = map[string]bool{"Pages": true, "AllPages": true, "Segments": true}

// inPlaceFuncs are the slices and sort functions that write into the
// slice passed as their first argument.
var inPlaceFuncs = map[string]map[string]bool{
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true, "Reverse": true,
		"Delete": true, "DeleteFunc": true, "Compact": true, "CompactFunc": true,
		"Insert": true, "Replace": true,
	},
	"sort": {"Sort": true, "Stable": true, "Slice": true, "SliceStable": true},
}

func runTraceWrite(p *Pass) error {
	if p.Path == workloadPkg {
		return nil
	}
	for _, f := range p.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						p.checkTraceWrite(lhs)
					}
				}
			case *ast.IncDecStmt:
				p.checkTraceWrite(n.X)
			case *ast.CallExpr:
				p.checkTraceCall(n)
			}
			return true
		})
	}
	return nil
}

// checkTraceWrite reports lhs, the target of an assignment or ++/--,
// when it is a Request field reached through a pointer or lies inside an
// element of a Request's list.
func (p *Pass) checkTraceWrite(lhs ast.Expr) {
	e := ast.Unparen(lhs)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if name, indirect := p.requestField(sel); indirect {
			p.Reportf(lhs.Pos(), "write to workload.Request.%s through a pointer outside internal/workload; traces are shared by the runs replaying them, so copy the request first", name)
			return
		}
	}
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if name := p.requestList(x.X); name != "" {
				p.Reportf(lhs.Pos(), "write into an element of workload.Request.%s outside internal/workload; KV pools keep page lists by reference and runs share them", name)
				return
			}
			e = ast.Unparen(x.X)
		default:
			return
		}
	}
}

// checkTraceCall reports copy into a Request's list and in-place
// slices/sort calls on one.
func (p *Pass) checkTraceCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	what := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "copy" {
			what = "copy"
		}
	case *ast.SelectorExpr:
		if pkg := p.importedPkg(fun.X); inPlaceFuncs[pkg][fun.Sel.Name] {
			what = pkg + "." + fun.Sel.Name
		}
	}
	if what == "" {
		return
	}
	arg := ast.Unparen(call.Args[0])
	// sort.Sort(byPage(r.Pages)) sorts r.Pages.
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := p.Info.Types[conv.Fun]; ok && tv.IsType() {
			arg = conv.Args[0]
		}
	}
	if name := p.requestList(arg); name != "" {
		p.Reportf(call.Pos(), "%s writes into workload.Request.%s outside internal/workload; KV pools keep page lists by reference and runs share them", what, name)
	}
}

// requestList returns the list field name when e, or a reslice of it,
// is a Request's Pages, AllPages or Segments.
func (p *Pass) requestList(e ast.Expr) string {
	e = ast.Unparen(e)
	for {
		s, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(s.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if name, _ := p.requestField(sel); requestLists[name] {
		return name
	}
	return ""
}

// requestField returns the field name when sel selects a field of
// workload.Request, and whether reaching it went through a pointer.
func (p *Pass) requestField(sel *ast.SelectorExpr) (string, bool) {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", false
	}
	field := s.Obj()
	if field.Pkg() == nil || field.Pkg().Path() != workloadPkg {
		return "", false
	}
	req, ok := field.Pkg().Scope().Lookup("Request").(*types.TypeName)
	if !ok {
		return "", false
	}
	st, ok := req.Type().Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := range st.NumFields() {
		if st.Field(i) == field {
			return field.Name(), s.Indirect()
		}
	}
	return "", false
}
