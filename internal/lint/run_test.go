package lint_test

import (
	"errors"
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"maskedspgemm/internal/lint"
	"maskedspgemm/internal/lint/linttest"
)

// loadCallGraphFixtures loads cgdep and its importer cgmain, in that
// order, and returns the program with the cgdep.Leaf object.
func loadCallGraphFixtures(t *testing.T) (*lint.Program, types.Object) {
	t.Helper()
	prog := linttest.Load(t, linttest.TestdataDir(t), "cgdep", "cgmain")
	leaf := prog.Packages[0].Types.Scope().Lookup("Leaf")
	if leaf == nil {
		t.Fatal("cgdep.Leaf not found")
	}
	return prog, leaf
}

// at formats a diagnostic as file:line [analyzer].
func at(prog *lint.Program, d lint.Diagnostic) string {
	pos := prog.Fset.Position(d.Pos)
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line) + " [" + d.Analyzer + "]"
}

func diagsAt(prog *lint.Program, diags []lint.Diagnostic) string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = at(prog, d)
	}
	return strings.Join(out, ", ")
}

// TestRun checks the driver contract the analyzers build on: packages
// are analyzed dependencies first, so a fact exported on a function is
// visible where importers call it; facts are private to the analyzer
// that exported them; the whole-program pass sees the call graph and
// the per-package facts; findings come back sorted; and an analyzer's
// error names the analyzer and where it failed.
func TestRun(t *testing.T) {
	t.Run("facts reach importers", func(t *testing.T) {
		prog, leaf := loadCallGraphFixtures(t)
		// reportFactCalls reports every call of a function that carries
		// one of this analyzer's facts.
		reportFactCalls := func(pass *lint.Pass) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && pass.ObjectFact(obj) != nil {
							pass.Reportf(sel.Pos(), "calls a marked function")
						}
					}
					return true
				})
			}
		}
		marker := &lint.Analyzer{Name: "marker", Run: func(pass *lint.Pass) error {
			if pass.Pkg == leaf.Pkg() {
				pass.ExportObjectFact(leaf, true)
			}
			reportFactCalls(pass)
			return nil
		}}
		// other exports nothing, so it must see none of marker's facts.
		other := &lint.Analyzer{Name: "other", Run: func(pass *lint.Pass) error {
			reportFactCalls(pass)
			return nil
		}}
		diags, err := lint.Run(prog, []*lint.Analyzer{marker, other})
		if err != nil {
			t.Fatal(err)
		}
		// cgdep.Leaf() in T.M and go cgdep.Leaf() in Top.
		if got, want := diagsAt(prog, diags), "cgmain.go:17 [marker], cgmain.go:25 [marker]"; got != want {
			t.Fatalf("diagnostics %s, want %s", got, want)
		}
	})

	t.Run("program pass sees graph and facts", func(t *testing.T) {
		prog, leaf := loadCallGraphFixtures(t)
		a := &lint.Analyzer{
			Name: "whole",
			Run: func(pass *lint.Pass) error {
				if pass.Pkg == leaf.Pkg() {
					pass.ExportObjectFact(leaf, "leaf")
				}
				return nil
			},
			RunProgram: func(pass *lint.ProgramPass) error {
				n := pass.Graph.Lookup(leaf.(*types.Func))
				if n == nil || n.Decl == nil {
					return errors.New("cgdep.Leaf is not a module node of the call graph")
				}
				if pass.ObjectFact(leaf) != "leaf" {
					return errors.New("the per-package fact on cgdep.Leaf is not visible")
				}
				pass.Reportf(n.Decl.Pos(), "seen")
				return nil
			},
		}
		diags, err := lint.Run(prog, []*lint.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := diagsAt(prog, diags), "cgdep.go:5 [whole]"; got != want {
			t.Fatalf("diagnostics %s, want %s", got, want)
		}
	})

	t.Run("findings sorted by position then analyzer", func(t *testing.T) {
		prog, _ := loadCallGraphFixtures(t)
		// Each analyzer reports Top before M; the result is in source
		// order, and ties break by analyzer name.
		reportTopThenM := func(pass *lint.Pass) error {
			scope := pass.Pkg.Scope()
			if top := scope.Lookup("Top"); top != nil {
				pass.Reportf(top.Pos(), "top")
				m, _, _ := types.LookupFieldOrMethod(scope.Lookup("T").Type(), false, pass.Pkg, "M")
				pass.Reportf(m.Pos(), "m")
			}
			return nil
		}
		zeta := &lint.Analyzer{Name: "zeta", Run: reportTopThenM}
		alpha := &lint.Analyzer{Name: "alpha", Run: reportTopThenM}
		diags, err := lint.Run(prog, []*lint.Analyzer{zeta, alpha})
		if err != nil {
			t.Fatal(err)
		}
		want := "cgmain.go:16 [alpha], cgmain.go:16 [zeta], cgmain.go:22 [alpha], cgmain.go:22 [zeta]"
		if got := diagsAt(prog, diags); got != want {
			t.Fatalf("diagnostics %s, want %s", got, want)
		}
	})

	broken := errors.New("broken")

	t.Run("package pass error", func(t *testing.T) {
		prog, _ := loadCallGraphFixtures(t)
		a := &lint.Analyzer{Name: "failing", Run: func(pass *lint.Pass) error {
			if pass.Pkg.Path() == "cgmain" {
				return broken
			}
			return nil
		}}
		_, err := lint.Run(prog, []*lint.Analyzer{a})
		if !errors.Is(err, broken) || !strings.Contains(err.Error(), "failing: cgmain:") {
			t.Fatalf("err = %v, want the analyzer's error wrapped with its name and package", err)
		}
	})

	t.Run("whole-program pass error", func(t *testing.T) {
		prog, _ := loadCallGraphFixtures(t)
		a := &lint.Analyzer{Name: "failing", RunProgram: func(*lint.ProgramPass) error { return broken }}
		_, err := lint.Run(prog, []*lint.Analyzer{a})
		if !errors.Is(err, broken) || !strings.Contains(err.Error(), "failing: whole-program pass:") {
			t.Fatalf("err = %v, want the analyzer's error wrapped with its name", err)
		}
	})
}
