package analyzers

import (
	"go/ast"
	"go/types"

	"cellmg/internal/analyzers/framework"
)

// hotpathCalleeWhitelist lists packages whose functions are callable from
// //cellmg:hotpath code: pure math, the synchronization primitives the
// work-sharing runner needs, and the flight recorder's record path. None of
// them allocate on the paths the kernels use; //cellmg:hotpath-safe
// annotations in another package are invisible to a per-package analysis
// pass, so flight's contract (nil-check no-op, 0 allocs/op, guarded by its
// own AllocsPerRun tests) is admitted here by package path.
var hotpathCalleeWhitelist = map[string]bool{
	"math":                   true,
	"math/bits":              true,
	"sync":                   true,
	"sync/atomic":            true,
	"cellmg/internal/flight": true,
}

// HotpathAlloc enforces the 0 allocs/op contract of the likelihood kernels
// and the ParallelFor runner (PR 1/PR 5): a function annotated
// //cellmg:hotpath may not contain allocating constructs and may only call
// hotpath/hotpath-safe functions or the package whitelist.
var HotpathAlloc = &framework.Analyzer{
	Name: "hotpathalloc",
	Doc: `enforce allocation-freedom of //cellmg:hotpath functions

Inside a //cellmg:hotpath function the analyzer flags:
  - make, new, append (heap growth)
  - slice, map and function composite literals
  - function literals (closures capture and escape)
  - go and defer statements
  - conversions and assignments that box a concrete value into an interface
  - calls to functions that are neither //cellmg:hotpath, //cellmg:hotpath-safe,
    nor in the package whitelist (math, math/bits, sync, sync/atomic)

Calls through function values and interface methods are dynamic and cannot be
checked statically; the testing.AllocsPerRun guards in alloc_test.go back
those. Intentional violations take a //cellmg:allow hotpathalloc waiver.`,
	Run: runHotpathAlloc,
}

func runHotpathAlloc(pass *framework.Pass) error {
	fa := collectFuncAnnotations(pass)
	for obj, fd := range fa.decls {
		if fd.Body == nil {
			continue
		}
		checkHotpathBody(pass, fa, obj, fd)
	}
	return nil
}

func checkHotpathBody(pass *framework.Pass, fa *funcAnnotations, fn *types.Func, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.ReportWithWaiverFix(n.Pos(), n.End(),
				"hotpath function %s contains a function literal; closures capture state and escape to the heap", fn.Name())
			return false // don't descend: the literal's body is not hotpath

		case *ast.GoStmt:
			pass.ReportWithWaiverFix(n.Pos(), n.End(),
				"hotpath function %s spawns a goroutine", fn.Name())

		case *ast.DeferStmt:
			pass.ReportWithWaiverFix(n.Pos(), n.End(),
				"hotpath function %s uses defer, which allocates a deferred frame on some paths", fn.Name())

		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Chan:
				pass.ReportWithWaiverFix(n.Pos(), n.End(),
					"hotpath function %s allocates a composite literal", fn.Name())
			}

		case *ast.AssignStmt:
			checkBoxingAssign(pass, fn, n)

		case *ast.CallExpr:
			checkHotpathCall(pass, fa, fn, n)
		}
		return true
	})
}

// checkHotpathCall vets one call inside a hotpath body.
func checkHotpathCall(pass *framework.Pass, fa *funcAnnotations, fn *types.Func, call *ast.CallExpr) {
	info := pass.TypesInfo

	if isConversion(info, call) {
		// A conversion to an interface type boxes its operand.
		if t := info.Types[call.Fun].Type; types.IsInterface(t) && len(call.Args) == 1 {
			if at := info.Types[call.Args[0]].Type; at != nil && !types.IsInterface(at) {
				pass.ReportWithWaiverFix(call.Pos(), call.End(),
					"hotpath function %s boxes a %s into interface %s", fn.Name(), at, t)
			}
		}
		return
	}

	if b := calleeBuiltin(info, call); b != nil {
		switch b.Name() {
		case "make", "new":
			pass.ReportWithWaiverFix(call.Pos(), call.End(),
				"hotpath function %s calls %s, which allocates", fn.Name(), b.Name())
		case "append":
			pass.ReportWithWaiverFix(call.Pos(), call.End(),
				"hotpath function %s calls append, which allocates when the backing array grows", fn.Name())
		}
		return
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		// Dynamic call through a function value — not statically checkable.
		checkBoxingArgs(pass, fn, call)
		return
	}
	if isInterfaceMethod(callee) {
		// Dynamic dispatch — covered by alloc tests, not the analyzer.
		checkBoxingArgs(pass, fn, call)
		return
	}
	callee = callee.Origin() // annotations sit on the generic declaration, not on its instances
	path := funcPkgPath(callee)
	switch {
	case callee.Pkg() == pass.Pkg:
		if !fa.hotpath[callee] && !fa.safe[callee] {
			pass.ReportWithWaiverFix(call.Pos(), call.End(),
				"hotpath function %s calls %s, which is neither //cellmg:hotpath nor //cellmg:hotpath-safe", fn.Name(), callee.Name())
		}
	case hotpathCalleeWhitelist[path]:
		// ok
	default:
		pass.ReportWithWaiverFix(call.Pos(), call.End(),
			"hotpath function %s calls %s.%s, outside the hotpath package whitelist", fn.Name(), path, callee.Name())
	}
	checkBoxingArgs(pass, fn, call)
}

// checkBoxingArgs flags call arguments whose concrete values convert
// implicitly to interface-typed parameters.
func checkBoxingArgs(pass *framework.Pass, fn *types.Func, call *ast.CallExpr) {
	info := pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) || at == types.Typ[types.UntypedNil] {
			continue
		}
		if basic, ok := at.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		pass.ReportWithWaiverFix(arg.Pos(), arg.End(),
			"hotpath function %s boxes a %s argument into interface %s", fn.Name(), at, pt)
	}
}

// checkBoxingAssign flags assignments that store a concrete value into an
// interface-typed destination.
func checkBoxingAssign(pass *framework.Pass, fn *types.Func, as *ast.AssignStmt) {
	info := pass.TypesInfo
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.Types[lhs].Type
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		rt := info.Types[as.Rhs[i]].Type
		if rt == nil || types.IsInterface(rt) {
			continue
		}
		if basic, ok := rt.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			continue
		}
		pass.ReportWithWaiverFix(as.Rhs[i].Pos(), as.Rhs[i].End(),
			"hotpath function %s boxes a %s into interface %s", fn.Name(), rt, lt)
	}
}
