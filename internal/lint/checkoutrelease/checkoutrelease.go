// Package checkoutrelease verifies that every pooled-workspace checkout
// (exec.Masked / exec.MaskedWindow / exec.Dense) in a function is paired with a Release
// that runs on every exit of that function. A plain end-of-body
// ws.Release() does not count: an early error return or a panic
// unwinding past it leaks the workspace out of the engine's pool (and,
// worse, can leave a dirty workspace checked out forever). Only
// defer-based releases are accepted — either
//
//	defer ws.Release()
//
// directly, or a ws.Release() inside a deferred cleanup closure, the
// repository's clean-flag quarantine pattern:
//
//	clean := false
//	defer func() {
//		if !clean {
//			ws.Poison()
//		}
//		ws.Release()
//	}()
//
// Three shapes transfer ownership and are exempt by construction:
// assigning the checkout to a field or other non-identifier target
// (mu.ws = exec.Masked(...) — the owner's lifecycle releases it),
// returning the workspace to the caller, and checking out from a nil
// engine (the first argument is the literal nil: an unpooled workspace
// has no pool to leak from, so its Release is a no-op).
package checkoutrelease

import (
	"go/ast"
	"go/types"

	"maskedspgemm/internal/lint"
)

// Analyzer flags workspace checkouts without a deferred Release.
var Analyzer = &lint.Analyzer{
	Name: "checkoutrelease",
	Doc: "flags exec.Masked/exec.MaskedWindow/exec.Dense checkouts whose Release is not " +
		"deferred: releases must survive error returns and panic unwinding",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Every function body — declared or literal — is its own
			// unit: a checkout inside a closure must be released by a
			// defer inside that same closure, since the closure's
			// return is when its defers run.
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// site is one tracked checkout: the variable it was assigned to and
// where, for the diagnostic.
type site struct {
	obj  types.Object
	name string
	fn   string
	call *ast.CallExpr
}

// checkBody analyzes one function body in two interleaved sweeps:
// collect checkout assignments into local variables, and collect the
// set of variables whose Release is reachable through a defer (or that
// escape to the caller via return). Checkouts in neither set are
// reported.
func checkBody(pass *lint.Pass, body *ast.BlockStmt) {
	var sites []site
	released := map[types.Object]bool{}
	escaped := map[types.Object]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			// A nested closure is checked as its own unit by run.
			return false
		case *ast.DeferStmt:
			// defer ws.Release() — direct.
			if obj := releaseReceiver(pass, st.Call); obj != nil {
				released[obj] = true
				return false
			}
			// defer func() { ... ws.Release() ... }() — the clean-flag
			// pattern; any Release inside the deferred literal counts,
			// including several (fused paths release two workspaces
			// from one cleanup).
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if obj := releaseReceiver(pass, call); obj != nil {
							released[obj] = true
						}
					}
					return true
				})
			}
			return false
		case *ast.ReturnStmt:
			// Returning the workspace hands ownership to the caller.
			for _, r := range st.Results {
				if id, ok := r.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						escaped[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 || len(st.Lhs) != 1 {
				return true
			}
			name, call := checkoutCall(pass, st.Rhs[0])
			if call == nil || nilEngine(call) {
				return true
			}
			lhs, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				// Field or element assignment: ownership transfer to a
				// longer-lived owner.
				return true
			}
			if lhs.Name == "_" {
				pass.Reportf(call.Pos(),
					"result of %s is discarded: the pooled workspace can never be Released", name)
				return true
			}
			obj := pass.TypesInfo.Defs[lhs]
			if obj == nil {
				obj = pass.TypesInfo.Uses[lhs]
			}
			if obj != nil {
				sites = append(sites, site{obj: obj, name: lhs.Name, fn: name, call: call})
			}
		case *ast.ExprStmt:
			if name, call := checkoutCall(pass, st.X); call != nil && !nilEngine(call) {
				pass.Reportf(call.Pos(),
					"result of %s is discarded: the pooled workspace can never be Released", name)
			}
		}
		return true
	})

	for _, s := range sites {
		if released[s.obj] || escaped[s.obj] {
			continue
		}
		pass.Reportf(s.call.Pos(),
			"workspace %s from %s has no deferred Release: pair the checkout with "+
				"`defer %s.Release()` (or release it in a deferred cleanup closure) so "+
				"error returns and panics return it to the pool", s.name, s.fn, s.name)
	}
}

// checkoutCall reports whether e is a package-qualified call to
// exec.Masked or exec.Dense (unwrapping generic instantiation), and if
// so returns its display name and the call.
func checkoutCall(pass *lint.Pass, e ast.Expr) (string, *ast.CallExpr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	fun := call.Fun
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Masked" && sel.Sel.Name != "MaskedWindow" && sel.Sel.Name != "Dense") {
		return "", nil
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	pn, ok := pass.TypesInfo.Uses[qual].(*types.PkgName)
	if !ok || pn.Imported().Name() != "exec" {
		return "", nil
	}
	return "exec." + sel.Sel.Name, call
}

// nilEngine reports whether the checkout's first argument is the
// literal nil — an unpooled workspace, built and discarded per call,
// whose Release has nothing to return.
func nilEngine(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	return ok && id.Name == "nil"
}

// releaseReceiver returns the object of x in a call of the form
// x.Release(), or nil if the call has another shape.
func releaseReceiver(pass *lint.Pass, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}
