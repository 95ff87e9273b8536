// Package hotpathalloc rejects allocating constructs in functions
// marked //spgemm:hotpath — the per-row and per-probe kernel paths
// whose constant factors the paper's cost models (Eq. 2/Eq. 3) are
// about. A single accidental allocation in a row kernel turns an
// O(flops) multiply into an allocator benchmark, and the regression is
// silent: tests still pass, throughput quietly halves.
//
// Flagged inside a hot-path function:
//   - make, new, map/slice composite literals, &composite literals
//   - append to a fresh slice (append([]T(nil), x)) or to a slice
//     declared locally without an explicit capacity
//     (append to parameters and struct fields is trusted: the buffer
//     contract there is the caller's, guarded by AllocsPerRun tests)
//   - closure literals and go statements
//   - string concatenation and string<->[]byte conversions
//   - boxing a non-pointer value into an interface
//   - any call into an allocation-prone package (fmt, errors, strconv,
//     strings, bytes, sort, log, reflect)
//   - calls to non-hot-path functions in this module whose bodies
//     allocate directly (one level of propagation)
//
// Intentional slow paths (e.g. amortized table growth) carry a
// //lint:ignore hotpathalloc <reason> directive.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"maskedspgemm/internal/lint"
)

// Directive marks a function as hot-path.
const Directive = "//spgemm:hotpath"

// allocProne are stdlib packages whose exported API allocates (or
// exists to build strings/errors); hot paths may not call into them.
var allocProne = map[string]bool{
	"fmt": true, "errors": true, "strconv": true, "strings": true,
	"bytes": true, "sort": true, "log": true, "reflect": true,
}

// fnFact is the cross-package summary of one function.
type fnFact struct {
	Hotpath   bool
	Allocates bool   // body contains a direct allocating construct
	Reason    string // first allocating construct, for diagnostics
}

// Analyzer is the hotpathalloc pass.
var Analyzer = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc:  "reject allocating constructs in //spgemm:hotpath functions",
	Run:  run,
}

func run(pass *lint.Pass) error {
	// First: summarize every function and export facts, so both this
	// package's hot paths and importing packages can check their calls.
	type fn struct {
		decl    *ast.FuncDecl
		obj     types.Object
		hotpath bool
	}
	var fns []fn
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			hot := lint.HasDirective(fd.Doc, Directive)
			fact := fnFact{Hotpath: hot}
			if reason, pos := firstAlloc(pass, fd); pos.IsValid() {
				fact.Allocates = true
				fact.Reason = reason
			}
			pass.ExportObjectFact(obj, fact)
			fns = append(fns, fn{decl: fd, obj: obj, hotpath: hot})
		}
	}
	// Second: report every allocating construct and allocating callee
	// inside the hot-path functions.
	for _, f := range fns {
		if !f.hotpath {
			continue
		}
		reportAllocs(pass, f.decl)
	}
	return nil
}

// firstAlloc returns the first direct allocating construct in fd, used
// for the exported fact (one-level propagation to callers).
func firstAlloc(pass *lint.Pass, fd *ast.FuncDecl) (string, token.Pos) {
	var reason string
	var pos token.Pos
	walkAllocs(pass, fd, func(p token.Pos, msg string) {
		if !pos.IsValid() {
			reason, pos = msg, p
		}
	})
	return reason, pos
}

// reportAllocs reports every allocating construct and every call to a
// known-allocating callee in fd.
func reportAllocs(pass *lint.Pass, fd *ast.FuncDecl) {
	walkAllocs(pass, fd, func(p token.Pos, msg string) {
		pass.Reportf(p, "hot path: %s", msg)
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // the literal itself is already reported
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type().Underlying()) {
				return true // dynamic dispatch: unresolvable statically
			}
			if _, ok := sig.Recv().Type().(*types.TypeParam); ok {
				return true
			}
		}
		if callee.Pkg() == nil {
			return true // builtin: handled by walkAllocs
		}
		if fact, ok := pass.ObjectFact(callee).(fnFact); ok {
			// A function of this module, summarized by an earlier (or this)
			// pass. Hot-path callees are checked at their own definition.
			if !fact.Hotpath && fact.Allocates {
				pass.Reportf(call.Pos(), "hot path: calls %s, which allocates (%s); mark it %s or hoist the allocation",
					callee.Name(), fact.Reason, Directive)
			}
			return true
		}
		if allocProne[callee.Pkg().Path()] {
			pass.Reportf(call.Pos(), "hot path: call to %s.%s (package %s is allocation-prone)",
				callee.Pkg().Name(), callee.Name(), callee.Pkg().Path())
		}
		return true
	})
}

// calleeFunc resolves the static callee of call, or nil for builtins,
// type conversions and indirect calls through function values.
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.IndexExpr: // explicit instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = pass.TypesInfo.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = pass.TypesInfo.Uses[id]
		}
	}
	f, _ := obj.(*types.Func)
	if f != nil {
		// Methods on instantiated generic receivers resolve to derived
		// objects; facts are keyed by the generic declaration.
		f = f.Origin()
	}
	return f
}

// walkAllocs invokes report for each direct allocating construct in fd,
// not descending into nested function literals (the literal itself is
// the allocation there).
func walkAllocs(pass *lint.Pass, fd *ast.FuncDecl, report func(token.Pos, string)) {
	info := pass.TypesInfo
	reported := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal allocates")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "go statement spawns a goroutine")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
					reported[cl] = true
				}
			}
		case *ast.CompositeLit:
			if reported[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := info.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n, report)
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				return true
			}
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					checkBox(pass, info.TypeOf(lhs), n.Rhs[i], report)
				}
			}
		case *ast.ReturnStmt:
			sig, ok := info.TypeOf(fd.Name).(*types.Signature)
			if !ok || sig.Results().Len() != len(n.Results) {
				return true
			}
			for i, res := range n.Results {
				checkBox(pass, sig.Results().At(i).Type(), res, report)
			}
		}
		return true
	})
}

// checkCall handles builtins (make/new/append), conversions, and
// implicit interface boxing of call arguments.
func checkCall(pass *lint.Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string)) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion T(x).
		dst := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if isStringByteConversion(dst, src) {
				report(call.Pos(), "conversion between string and []byte/[]rune allocates")
				return
			}
			checkBox(pass, dst, call.Args[0], report)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				checkAppend(pass, fd, call, report)
			}
			return
		}
	}
	// Implicit boxing of arguments into interface parameters.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || (i == sig.Params().Len()-1 && !sig.Variadic()):
			param = sig.Params().At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue // f(xs...) passes the slice through unboxed
		}
		checkBox(pass, param, arg, report)
	}
}

// checkAppend flags appends whose destination is a fresh slice (a
// conversion such as []T(nil); a slice literal is already reported
// where it stands) or a local slice that was never preallocated with an
// explicit capacity. Appends to parameters and struct fields follow the
// caller-owns-the-buffer contract and are trusted.
func checkAppend(pass *lint.Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string)) {
	if len(call.Args) == 0 {
		return
	}
	var id *ast.Ident
	switch dst := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		id = dst
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[dst.Fun]; ok && tv.IsType() {
			report(call.Pos(), "append to a fresh slice allocates")
		}
		return
	default:
		return // field or indexed destination: caller-owned buffer; a slice literal is reported as one
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pos() < fd.Pos() || v.Pos() > fd.End() {
		return // not declared in this function
	}
	if isParam(pass, fd, v) {
		return
	}
	init, found := findInit(pass, fd, v)
	if !found {
		report(call.Pos(), "append to "+v.Name()+", declared without capacity (var declaration)")
		return
	}
	if preallocated(pass, init) {
		return
	}
	report(call.Pos(), "append may grow un-preallocated slice "+v.Name())
}

// isParam reports whether v is a parameter, result or receiver of fd.
func isParam(pass *lint.Pass, fd *ast.FuncDecl, v *types.Var) bool {
	sig, ok := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == v {
			return true
		}
	}
	return sig.Recv() == v
}

// findInit locates the initializer expression of v inside fd.
func findInit(pass *lint.Pass, fd *ast.FuncDecl, v *types.Var) (ast.Expr, bool) {
	var init ast.Expr
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if pass.TypesInfo.Defs[id] == v || pass.TypesInfo.Uses[id] == v {
					found = true
					if init == nil {
						var rhs ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						} else if len(n.Rhs) == 1 {
							// x, y := f(): the callee owns the capacity contract.
							rhs = n.Rhs[0]
						}
						// v = append(v, ...) is growth, not initialization:
						// it must not mask an uncapacitated declaration.
						if !isSelfAppend(pass, rhs, v) {
							init = rhs
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] == v {
					found = true
					if i < len(n.Values) && init == nil {
						init = n.Values[i]
					}
				}
			}
		}
		return true
	})
	return init, found && init != nil
}

// isSelfAppend reports whether e is append(v, ...) for the variable v.
func isSelfAppend(pass *lint.Pass, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[dst] == v
}

// preallocated reports whether init plausibly reserves capacity: a
// make with an explicit capacity, a slice of an existing array, or any
// opaque expression (call, field, parameter) whose buffer the callee
// does not own.
func preallocated(pass *lint.Pass, init ast.Expr) bool {
	switch e := ast.Unparen(init).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return len(e.Args) >= 3
			}
		}
		return true // result of a call: capacity is the callee's contract
	case *ast.CompositeLit:
		return false
	case *ast.SliceExpr, *ast.SelectorExpr, *ast.IndexExpr, *ast.Ident:
		return true
	default:
		return false
	}
}

// checkBox reports boxing a concrete non-pointer value into dst when
// dst is an interface type: the value is copied to the heap at the
// conversion point.
func checkBox(pass *lint.Pass, dst types.Type, src ast.Expr, report func(token.Pos, string)) {
	if dst == nil {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return
	}
	if !types.IsInterface(dst.Underlying()) {
		return
	}
	st := pass.TypesInfo.TypeOf(src)
	if st == nil {
		return
	}
	if _, ok := st.(*types.TypeParam); ok {
		return
	}
	if types.IsInterface(st.Underlying()) {
		return // interface-to-interface: no new allocation
	}
	switch u := st.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return // pointer-shaped: fits the interface word
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Info()&types.IsUntyped != 0 {
			return // unsafe.Pointer, or untyped constant (incl. nil)
		}
	}
	report(src.Pos(), types.TypeString(st, types.RelativeTo(pass.Pkg))+" boxed into interface "+
		types.TypeString(dst, types.RelativeTo(pass.Pkg)))
}

// isStringByteConversion reports string <-> []byte/[]rune conversions.
func isStringByteConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
