package lint_test

import (
	"go/types"
	"testing"

	"maskedspgemm/internal/lint"
	"maskedspgemm/internal/lint/linttest"
)

// calleeNames lists the function names of n's outgoing edges.
func calleeNames(n *lint.Node) []string {
	out := make([]string, len(n.Out))
	for i, c := range n.Out {
		out[i] = c.Func.Name()
	}
	return out
}

func TestBuildCallGraph(t *testing.T) {
	prog := linttest.Load(t, linttest.TestdataDir(t), "cgdep", "cgmain")
	g := lint.BuildCallGraph(prog)

	var topFn *types.Func
	for _, pkg := range prog.Packages {
		if pkg.ImportPath == "cgmain" {
			topFn, _ = pkg.Types.Scope().Lookup("Top").(*types.Func)
		}
	}
	top := g.Lookup(topFn)
	if top == nil || top.Decl == nil {
		t.Fatalf("Top is not a module node: %+v", top)
	}

	// Out edges in source order: t.M(), go cgdep.Leaf(), defer helper(),
	// helper() inside the function literal. f() is a function value and
	// does not resolve.
	want := []string{"M", "Leaf", "helper", "helper"}
	got := calleeNames(top)
	if len(got) != len(want) {
		t.Fatalf("Top calls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top calls %v, want %v", got, want)
		}
	}

	// Leaf lives in the other module package; the call from M and the
	// go statement in Top reach the same node.
	m, leaf := top.Out[0], top.Out[1]
	if leaf.Decl == nil {
		t.Fatal("cgdep.Leaf is not a module node")
	}
	if got := calleeNames(m); len(got) != 2 || m.Out[0] != leaf || got[1] != "ToUpper" {
		t.Fatalf("M calls %v, want [Leaf ToUpper] with Leaf the node Top calls", got)
	}

	// A stdlib callee is an external node: no Decl, no outgoing edges.
	if upper := m.Out[1]; upper.Decl != nil || len(upper.Out) != 0 {
		t.Fatalf("strings.ToUpper should be external, got %+v", upper)
	}
}
