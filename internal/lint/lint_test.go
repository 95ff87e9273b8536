package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"maskedspgemm/internal/lint"
)

const suppressSrc = `package p

func a() {
	//lint:ignore testcheck covered by integration test
	_ = 1
	//lint:ignore othercheck reason here
	_ = 2
	//lint:ignore testcheck
	_ = 3
	//lint:ignore all broad reason
	_ = 4
	_ = 5 //lint:ignore testcheck same-line reason

	_ = 6
}
`

func TestSuppress(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(f.Pos())
	at := func(line int) token.Pos { return tf.LineStart(line) }
	diags := []lint.Diagnostic{
		{Pos: at(5), Analyzer: "testcheck", Message: "line-above directive"},
		{Pos: at(7), Analyzer: "testcheck", Message: "directive names another check"},
		{Pos: at(9), Analyzer: "testcheck", Message: "reasonless directive never suppresses"},
		{Pos: at(11), Analyzer: "testcheck", Message: "all silences everything"},
		{Pos: at(12), Analyzer: "testcheck", Message: "same-line directive"},
		{Pos: at(14), Analyzer: "testcheck", Message: "no directive at all"},
	}
	got := lint.Suppress(fset, []*ast.File{f}, diags)

	type want struct {
		line     int
		analyzer string
	}
	// Lines 5, 11 and 12 are suppressed; 7 (wrong check), 9 (no reason)
	// and 13 (no directive) survive; the reasonless directive on line 8
	// is reported as its own finding, appended after the kept ones.
	wants := []want{
		{7, "testcheck"},
		{9, "testcheck"},
		{14, "testcheck"},
		{8, "lintdirective"},
	}
	if len(got) != len(wants) {
		t.Fatalf("Suppress kept %d diagnostics, want %d: %+v", len(got), len(wants), got)
	}
	for i, w := range wants {
		pos := fset.Position(got[i].Pos)
		if pos.Line != w.line || got[i].Analyzer != w.analyzer {
			t.Errorf("diag %d = %s at line %d, want %s at line %d (message %q)",
				i, got[i].Analyzer, pos.Line, w.analyzer, w.line, got[i].Message)
		}
	}
	if !strings.Contains(got[3].Message, "the reason is required") {
		t.Errorf("malformed-directive message = %q, want it to demand a reason", got[3].Message)
	}
}

const directiveSrc = `package p

//spgemm:hotpath
func hot() {}

// spgemm:hotpath mentioned in prose is not a directive.
func cold() {}

// docThenDirective has prose before its directive.
//
//spgemm:hotpath
func docThenDirective() {}
`

func TestHasDirective(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"hot": true, "cold": false, "docThenDirective": true}
	for _, decl := range f.Decls {
		fd := decl.(*ast.FuncDecl)
		if got := lint.HasDirective(fd.Doc, "//spgemm:hotpath"); got != want[fd.Name.Name] {
			t.Errorf("HasDirective(%s) = %v, want %v", fd.Name.Name, got, want[fd.Name.Name])
		}
	}
}
