package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolSafety guards the pooled-record lifecycle: fired/cancelled events,
// retired GPU runs, evicted radix nodes and the engines' finished prefill
// and hand-off jobs go back on free lists and are recycled, so holding
// one past its release point corrupts an unrelated later schedule.
var PoolSafety = &Analyzer{
	Name: "poolsafety",
	Doc: "flag pooled records retained past release and Handle slot access without a generation check\n\n" +
		"Three rules: (1) a pooled record type (sim.Event, gpu.run,\n" +
		"kvcache.node, the engines' prefill and hand-off jobs) must not be\n" +
		"named outside its home package — callers hold generation-checked\n" +
		"Handles; (2) after a release call (a call whose name starts with\n" +
		"release or Release, or a free-list append) the released variable\n" +
		"must not be read again in the same block; (3) inside the home package, a\n" +
		"Handle's slot field must only be dereferenced under a Pending()\n" +
		"generation check, so Cancel on a recycled slot stays a no-op.",
	Run: runPoolSafety,
}

// pooledTypes are the recycled record types and their home packages.
type pooledType struct {
	pkg  string
	name string
}

var pooledRecordTypes = []pooledType{
	{modulePath + "/internal/sim", "Event"},
	{modulePath + "/internal/gpu", "run"},
	{modulePath + "/internal/kvcache", "node"},
	// Engines' per-request queue records, recycled through arena.Pool.
	{modulePath + "/internal/core", "prefillJob"},
	{modulePath + "/internal/temporal", "job"},
	{modulePath + "/internal/loong", "pjob"},
	{modulePath + "/internal/pdsep", "handoffReq"},
}

// handleSpec describes a generation-checked handle: accessing slotField
// outside guardMethod requires a prior guardMethod() call on the same
// receiver within the function.
type handleSpec struct {
	pkg         string
	name        string
	slotField   string
	guardMethod string
}

var handleSpecs = []handleSpec{
	{modulePath + "/internal/sim", "Handle", "ev", "Pending"},
}

func runPoolSafety(p *Pass) error {
	for _, f := range p.SourceFiles() {
		p.checkForeignRetention(f)
		p.checkUseAfterRelease(f)
		p.checkUnguardedSlotAccess(f)
	}
	return nil
}

// isPooledTypeName reports whether obj names a pooled record type.
func isPooledTypeName(obj types.Object) (pooledType, bool) {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.Pkg() == nil {
		return pooledType{}, false
	}
	for _, pt := range pooledRecordTypes {
		if tn.Name() == pt.name && tn.Pkg().Path() == pt.pkg {
			return pt, true
		}
	}
	return pooledType{}, false
}

// isPooledValue reports whether t is (a pointer to) a pooled record.
func isPooledValue(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	_, ok = isPooledTypeName(named.Obj())
	return ok
}

// Rule 1: a pooled record type named outside its home package is a
// retention hazard — the pool will recycle the slot under the holder.
func (p *Pass) checkForeignRetention(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		pt, ok := isPooledTypeName(obj)
		if !ok || pt.pkg == p.Path {
			return true
		}
		p.Reportf(id.Pos(), "pooled record %s.%s must not be retained outside %s; its slot is recycled after release — hold a generation-checked Handle instead",
			pathBase(pt.pkg), pt.name, pt.pkg)
		return true
	})
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Rule 2: after a release, the variable is dead. A release is a call
// to a function whose name starts with "release" taking the value, or
// a free-list append (x.free = append(x.free, v)).
func (p *Pass) checkUseAfterRelease(f *ast.File) {
	funcDecls(f, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				released := p.releasedIn(stmt)
				if released == nil {
					continue
				}
				p.flagLaterUse(block.List[i+1:], released)
			}
			return true
		})
	})
}

// releasedIn returns the object of a pooled variable released by stmt,
// or nil.
func (p *Pass) releasedIn(stmt ast.Stmt) types.Object {
	var released types.Object
	ast.Inspect(stmt, func(n ast.Node) bool {
		if released != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		isRelease := strings.HasPrefix(name, "release") || strings.HasPrefix(name, "Release")
		isFreeAppend := false
		if !isRelease && p.isBuiltinAppend(call) && len(call.Args) >= 2 {
			if dst, ok := call.Args[0].(*ast.SelectorExpr); ok && dst.Sel.Name == "free" {
				isFreeAppend = true
			}
		}
		if !isRelease && !isFreeAppend {
			return true
		}
		args := call.Args
		if isFreeAppend {
			args = call.Args[1:]
		}
		for _, arg := range args {
			id, ok := arg.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := p.objectOf(id); obj != nil && isPooledValue(obj.Type()) {
				released = obj
				return false
			}
		}
		return true
	})
	return released
}

// flagLaterUse reports the first read of obj in stmts; a plain
// reassignment of obj re-binds it and ends tracking.
func (p *Pass) flagLaterUse(stmts []ast.Stmt, obj types.Object) {
	for _, stmt := range stmts {
		if rebindsObj(p, stmt, obj) {
			return
		}
		var usePos ast.Node
		ast.Inspect(stmt, func(n ast.Node) bool {
			if usePos != nil {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && p.objectOf(id) == obj {
				usePos = id
				return false
			}
			return true
		})
		if usePos != nil {
			p.Reportf(usePos.Pos(), "%s is used after being released to the pool; the slot may already be recycled for an unrelated schedule",
				obj.Name())
			return
		}
	}
}

// rebindsObj reports whether stmt assigns a fresh value to obj (alone
// on the LHS), which legitimizes further use.
func rebindsObj(p *Pass, stmt ast.Stmt, obj types.Object) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && p.objectOf(id) == obj {
			// Make sure the RHS doesn't itself read the dead value.
			reads := false
			for _, rhs := range as.Rhs {
				ast.Inspect(rhs, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && p.objectOf(id) == obj {
						reads = true
					}
					return !reads
				})
			}
			return !reads
		}
	}
	return false
}

// Rule 3: inside the handle's home package, slot access needs the
// generation check.
func (p *Pass) checkUnguardedSlotAccess(f *ast.File) {
	var spec *handleSpec
	for i := range handleSpecs {
		if handleSpecs[i].pkg == p.Path {
			spec = &handleSpecs[i]
			break
		}
	}
	if spec == nil {
		return
	}
	funcDecls(f, func(fd *ast.FuncDecl) {
		if fd.Name.Name == spec.guardMethod {
			return // the guard itself implements the generation check
		}
		// Receivers (by textual key) that have a guard call somewhere
		// in this function.
		guarded := make(map[string]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == spec.guardMethod {
				guarded[exprKey(sel.X)] = true
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != spec.slotField {
				return true
			}
			base := p.Info.TypeOf(sel.X)
			if base == nil || !isHandleType(base, spec) {
				return true
			}
			if guarded[exprKey(sel.X)] {
				return true
			}
			p.Reportf(sel.Pos(), "%s.%s accessed without a generation check; guard with %s.%s() so a recycled slot cannot be touched",
				exprKey(sel.X), spec.slotField, exprKey(sel.X), spec.guardMethod)
			return true
		})
	})
}

func isHandleType(t types.Type, spec *handleSpec) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == spec.name && obj.Pkg() != nil && obj.Pkg().Path() == spec.pkg
}
