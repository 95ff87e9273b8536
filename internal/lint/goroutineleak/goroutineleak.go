// Package goroutineleak enforces the repository's goroutine lifecycle
// contract: every `go` statement must carry a provable termination
// path. A worker that nothing joins and nothing can stop outlives its
// run — under the serving roadmap (sharded workers exchanging panels,
// multi-tenant streams) a leaked goroutine per request is a slow OOM
// and a stuck one is an unkillable tenant.
//
// Termination evidence, searched in the spawned body and transitively
// through every statically resolved callee (cross-package, via the
// call graph):
//
//   - a channel receive or send, a range over a channel, or a receive
//     in a select — the goroutine participates in a join or quit
//     protocol (context cancellation lands here via <-ctx.Done());
//   - a stop-flag poll: atomic.Bool.Load or ctx.Err();
//   - a WaitGroup join: any (*sync.WaitGroup).Done call;
//   - a completion signal: close(ch), which a supervisor awaits;
//   - a condition-variable park: (*sync.Cond).Wait — the wave
//     scheduler's barrier; the releasing Broadcast is the supervisor's
//     to issue, making the exit observable.
//
// A goroutine whose termination is established by means the analyzer
// cannot see (an external library's own lifecycle, process-lifetime
// daemons) is annotated at the go statement:
//
//	//lint:ignore goroutineleak server lives for the process
//	go srv.run()
//
// The analyzer is deliberately an under-approximation of "terminates":
// bounded loops with no join still flag, because the contract is not
// "eventually exits" but "exits observably" — the spawner (or its
// supervisor) must be able to wait for or trigger the exit.
package goroutineleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"maskedspgemm/internal/lint"
)

// Analyzer is the goroutineleak pass.
var Analyzer = &lint.Analyzer{
	Name:       "goroutineleak",
	Doc:        "every go statement needs a provable termination path: channel join, stop-flag poll, WaitGroup, or close signal",
	Run:        run,
	RunProgram: runProgram,
}

// EvidenceFact marks a function whose body carries direct termination
// evidence; exported per package so spawns in importing packages can
// prove termination through calls into this one.
type EvidenceFact struct {
	// Kind describes the first evidence found, for diagnostics/tests.
	Kind string
}

// run exports an EvidenceFact for every declared function with direct
// evidence in its body (including nested function literals).
func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if kind := directEvidence(pass.TypesInfo, fd.Body); kind != "" {
				pass.ExportObjectFact(fn, &EvidenceFact{Kind: kind})
			}
		}
	}
	return nil
}

func runProgram(pass *lint.ProgramPass) error {
	// trans reports whether fn (or anything it statically calls)
	// carries termination evidence. Memoized over the call graph.
	memo := map[*types.Func]bool{}
	onStack := map[*types.Func]bool{}
	var trans func(fn *types.Func) bool
	trans = func(fn *types.Func) bool {
		if got, ok := memo[fn]; ok {
			return got
		}
		if onStack[fn] {
			return false
		}
		onStack[fn] = true
		defer func() { onStack[fn] = false }()
		if _, ok := pass.ObjectFact(fn).(*EvidenceFact); ok {
			memo[fn] = true
			return true
		}
		node := pass.Graph.Lookup(fn)
		if node != nil {
			for _, callee := range node.Out {
				if callee.Decl != nil && trans(callee.Func) {
					memo[fn] = true
					return true
				}
			}
		}
		memo[fn] = false
		return false
	}

	var spawns []*ast.GoStmt
	infoOf := map[*ast.GoStmt]*types.Info{}
	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			info := pkg.Info
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					spawns = append(spawns, g)
					infoOf[g] = info
				}
				return true
			})
		}
	}
	sort.Slice(spawns, func(i, j int) bool { return spawns[i].Pos() < spawns[j].Pos() })

	for _, g := range spawns {
		info := infoOf[g]
		if spawnTerminates(info, g, trans) {
			continue
		}
		pass.Reportf(g.Pos(),
			"goroutine has no provable termination path (no channel join, stop-flag poll, WaitGroup Done, or close signal in its body or static callees); make its exit observable or annotate //lint:ignore goroutineleak <reason>")
	}
	return nil
}

// spawnTerminates checks one go statement: direct evidence in a
// spawned literal's body, or transitive evidence through any resolved
// call in the spawned expression.
func spawnTerminates(info *types.Info, g *ast.GoStmt, trans func(*types.Func) bool) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if directEvidence(info, lit.Body) != "" {
			return true
		}
	}
	// Any statically resolved call in the spawned expression (the
	// called function itself, or calls inside a literal body) with
	// transitive evidence proves the spawn.
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := lint.CalleeFunc(info, call); fn != nil && trans(fn) {
			found = true
			return false
		}
		return true
	})
	return found
}

// directEvidence scans one body (nested literals included) for
// termination evidence, returning its kind or "".
func directEvidence(info *types.Info, body ast.Node) string {
	kind := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				kind = "channel receive"
			}
		case *ast.SendStmt:
			kind = "channel send"
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					kind = "range over channel"
				}
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" && info.Uses[fun] == nil {
					// The predeclared close builtin has no Uses entry
					// under a named object; Implicit builtins resolve to
					// *types.Builtin via Uses in practice — accept either.
					kind = "close signal"
				} else if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "close" {
					kind = "close signal"
				}
			case *ast.SelectorExpr:
				fn, _ := info.Uses[fun.Sel].(*types.Func)
				if fn == nil {
					break
				}
				switch {
				case fn.Name() == "Done" && recvIs(fn, "sync", "WaitGroup"):
					kind = "WaitGroup Done"
				case fn.Name() == "Load" && recvIs(fn, "sync/atomic", "Bool"):
					kind = "stop-flag poll"
				case fn.Name() == "Err" && recvIs(fn, "context", "Context"):
					kind = "context poll"
				case fn.Name() == "Wait" && recvIs(fn, "sync", "Cond"):
					// A worker parked in sync.Cond.Wait (the wave
					// barrier) is released by a Broadcast the supervisor
					// owns — an observable join point, same as a channel.
					kind = "condvar wait"
				}
			}
		}
		return true
	})
	return kind
}

// recvIs reports whether fn is a method whose receiver (or its
// pointee) is the named type pkgPath.name. Interface methods (like
// context.Context.Err) resolve through the interface's defining named
// type.
func recvIs(fn *types.Func, pkgPath, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
