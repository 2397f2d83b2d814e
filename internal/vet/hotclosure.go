package vet

import (
	"go/ast"
	"go/types"
)

// HotClosure flags per-call allocation patterns on pooled hot paths.
var HotClosure = &Analyzer{
	Name: "hotclosure",
	Doc: "flag fmt formatting, interface boxing and large value receivers on pooled hot paths\n\n" +
		"In the pooled hot-path packages (sim, gpu, metrics, kvcache, par) it\n" +
		"flags the per-call allocations and copies muxperf's allocs_per_req\n" +
		"gate would otherwise catch after the fact: fmt.Sprintf-family calls\n" +
		"outside String/Error/Format methods and panic messages, struct values\n" +
		"boxed into interface parameters, and methods other than\n" +
		"String/Error/Format whose value receiver is a struct of more than 80\n" +
		"bytes, which every call copies. Every function in a\n" +
		"hot package is presumed reachable from the per-event paths of a\n" +
		"run unless it is pure formatting or a terminal panic.",
	Run: runHotClosure,
}

// fmtAllocFuncs allocate their result on every call.
var fmtAllocFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
	"Appendf":  true,
}

// formattingMethods are cold, human-facing formatting entry points.
var formattingMethods = map[string]bool{
	"String":   true,
	"Error":    true,
	"Format":   true,
	"GoString": true,
}

func runHotClosure(p *Pass) error {
	if !IsHotPath(p.Path) {
		return nil
	}
	for _, f := range p.SourceFiles() {
		funcDecls(f, func(fd *ast.FuncDecl) {
			isFormatting := formattingMethods[fd.Name.Name]
			if !isFormatting {
				p.checkValueReceiver(fd)
			}
			var stack []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isFormatting {
					p.checkFmtAlloc(call, stack)
				}
				p.checkBoxing(call)
				return true
			})
		})
	}
	return nil
}

// largeReceiverBytes is the size above which a struct value receiver is
// flagged: each call copies it (the 104-byte model.Arch receiver once
// cost the cost model a runtime.duffcopy per call).
const largeReceiverBytes = 80

// receiverSizes sizes receivers as the gc compiler lays them out on
// amd64, so the verdict does not depend on the host.
var receiverSizes = types.SizesFor("gc", "amd64")

// checkValueReceiver flags a method whose value receiver is a struct
// larger than largeReceiverBytes.
func (p *Pass) checkValueReceiver(fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return
	}
	t := p.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	if size := receiverSizes.Sizeof(t); size > largeReceiverBytes {
		p.Reportf(fd.Recv.Pos(), "method %s copies its %d-byte %s receiver on every call on a pooled hot path; use a pointer receiver",
			fd.Name.Name, size, types.TypeString(t, types.RelativeTo(p.Pkg)))
	}
}

// checkFmtAlloc flags fmt allocation calls unless the result feeds a
// terminal panic.
func (p *Pass) checkFmtAlloc(call *ast.CallExpr, stack []ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || p.importedPkg(sel.X) != "fmt" || !fmtAllocFuncs[sel.Sel.Name] {
		return
	}
	if feedsPanic(stack) {
		return
	}
	p.Reportf(call.Pos(), "fmt.%s allocates on a pooled hot path (package %q); format lazily off the hot path or precompute",
		sel.Sel.Name, p.Path)
}

// feedsPanic reports whether the innermost enclosing call in stack is
// the panic builtin (panic(fmt.Sprintf(...)) is a terminal cold path).
func feedsPanic(stack []ast.Node) bool {
	// stack[len(stack)-1] is the fmt call itself.
	for i := len(stack) - 2; i >= 0; i-- {
		if outer, ok := stack[i].(*ast.CallExpr); ok {
			if id, isIdent := outer.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
			return false
		}
	}
	return false
}

// checkBoxing flags struct and array values passed into interface
// parameters: each such call boxes the value onto the heap. fmt calls
// are already flagged wholesale; pointers, basics, and values that are
// already interfaces are fine.
func (p *Pass) checkBoxing(call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && p.importedPkg(sel.X) == "fmt" {
		return
	}
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Struct, *types.Array:
			p.Reportf(arg.Pos(), "%s value %s boxed into interface parameter allocates per call on a pooled hot path; pass a pointer or a pre-boxed value",
				kindWord(at), types.ExprString(arg))
		}
	}
}

func kindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Array); ok {
		return "array"
	}
	return "struct"
}

// paramType returns the type of argument i, accounting for variadics.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := params.At(n - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i < n {
		return params.At(i).Type()
	}
	return nil
}
