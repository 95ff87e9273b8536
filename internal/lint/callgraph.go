package lint

import (
	"go/ast"
	"go/types"
)

// This file is the whole-program half of the framework: a cross-package
// call graph over the module's declared functions and methods, built
// from the loader's single type-checked package graph. Because every
// package in a Program shares one types.Importer, a *types.Func object
// is one identity program-wide, so graph nodes line up with the object
// facts the per-package passes export.
//
// Resolution is static: direct calls (f(..)), package-qualified calls
// (pkg.F(..)) and method calls with a concrete receiver (x.M(..)) are
// resolved through types.Info; calls through function values, interface
// methods without a module body, and reflection are not resolved and
// appear as edges to external nodes (Node.Decl == nil). Function
// literals are attributed to the declared function that lexically
// encloses them — a goroutine body or deferred closure counts as part
// of its declaring function.

// CallGraph is the module's static call graph.
type CallGraph struct {
	// nodes maps every function object seen (module-declared or
	// referenced) to its node.
	nodes map[*types.Func]*Node
}

// Node is one function in the call graph. Module-declared functions
// carry their declaration; functions known only from export data
// (stdlib, external deps, bodiless interface methods) have Decl == nil
// and no outgoing edges.
type Node struct {
	// Func is the function's type-checker object (one identity
	// program-wide).
	Func *types.Func
	// Decl is the declaration, nil for functions outside the module.
	Decl *ast.FuncDecl
	// Out holds the callee of each resolved call site, in source order.
	Out []*Node
}

// Lookup returns the node for fn, or nil if fn was never seen.
func (g *CallGraph) Lookup(fn *types.Func) *Node {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[canonicalFunc(fn)]
}

// canonicalFunc maps a method instantiation or wrapper back to the
// declared generic origin, so calls to F[int] and F[float64] share one
// node.
func canonicalFunc(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// BuildCallGraph walks every module package and resolves its static
// call sites. The result is deterministic for a given Program.
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{nodes: map[*types.Func]*Node{}}

	node := func(fn *types.Func) *Node {
		fn = canonicalFunc(fn)
		if n, ok := g.nodes[fn]; ok {
			return n
		}
		n := &Node{Func: fn}
		g.nodes[fn] = n
		return n
	}

	// Declare every module function first so bodiless references are
	// distinguishable from module functions by Decl presence.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					node(fn).Decl = fd
				}
			}
		}
	}

	// Record every resolved call as an outgoing edge of its declaration;
	// calls inside function literals (goroutine bodies, deferred
	// closures) belong to the enclosing declaration.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				caller := node(fn)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := CalleeFunc(pkg.Info, call); callee != nil {
							caller.Out = append(caller.Out, node(callee))
						}
					}
					return true
				})
			}
		}
	}
	return g
}

// CalleeFunc resolves a call expression to its static callee, or nil
// for calls through function values, type conversions and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return canonicalFunc(fn)
}
