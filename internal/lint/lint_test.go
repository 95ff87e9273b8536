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
	// and 14 (no directive) survive. Two directives are reported as
	// findings of their own, appended after the kept ones: the reasonless
	// one on line 8, then the one on line 6, which silenced nothing.
	wants := []want{
		{7, "testcheck"},
		{9, "testcheck"},
		{14, "testcheck"},
		{8, "lintdirective"},
		{6, "lintdirective"},
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
	if !strings.Contains(got[4].Message, "silenced nothing") {
		t.Errorf("stale-directive message = %q, want it to say it silenced nothing", got[4].Message)
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

// TestSuppressStale covers when a well-formed directive counts as used:
// any of its checks silencing any finding on its line or the line below
// it. Every other directive is reported, so a suppression cannot outlive
// its finding or the analyzer it names.
func TestSuppressStale(t *testing.T) {
	type finding struct {
		file     string
		line     int
		analyzer string
	}
	cases := []struct {
		name      string
		directive string // the comment on line 4 of p.go
		otherFile string // the comment on line 4 of q.go, if any
		diags     []finding
		want      []finding
	}{
		{
			name:      "names a deleted analyzer",
			directive: "//lint:ignore lockorder kept from an older suite",
			diags:     []finding{{"p.go", 5, "hotpathalloc"}},
			want:      []finding{{"p.go", 5, "hotpathalloc"}, {"p.go", 4, "lintdirective"}},
		},
		{
			name:      "one of its checks fired",
			directive: "//lint:ignore hotpathalloc,errtaxonomy reason",
			diags:     []finding{{"p.go", 5, "errtaxonomy"}},
		},
		{
			name:      "silences every finding it covers",
			directive: "//lint:ignore hotpathalloc,errtaxonomy reason",
			diags:     []finding{{"p.go", 5, "hotpathalloc"}, {"p.go", 5, "errtaxonomy"}},
		},
		{
			name:      "all with nothing to silence",
			directive: "//lint:ignore all reason",
			want:      []finding{{"p.go", 4, "lintdirective"}},
		},
		{
			name:      "two lines above does not apply",
			directive: "//lint:ignore hotpathalloc reason",
			diags:     []finding{{"p.go", 6, "hotpathalloc"}},
			want:      []finding{{"p.go", 6, "hotpathalloc"}, {"p.go", 4, "lintdirective"}},
		},
		{
			name:      "directive in another file does not apply",
			directive: "// no directive here",
			otherFile: "//lint:ignore hotpathalloc reason",
			diags:     []finding{{"p.go", 5, "hotpathalloc"}},
			want:      []finding{{"p.go", 5, "hotpathalloc"}, {"q.go", 4, "lintdirective"}},
		},
	}
	src := func(comment string) string {
		return "package p\n\nfunc f() {\n\t" + comment + "\n\t_ = 1\n\t_ = 2\n}\n"
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			files := map[string]*ast.File{}
			sources := map[string]string{"p.go": tc.directive}
			if tc.otherFile != "" {
				sources["q.go"] = tc.otherFile
			}
			var parsed []*ast.File
			for _, name := range []string{"p.go", "q.go"} {
				comment, ok := sources[name]
				if !ok {
					continue
				}
				f, err := parser.ParseFile(fset, name, src(comment), parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				files[name] = f
				parsed = append(parsed, f)
			}
			var diags []lint.Diagnostic
			for _, d := range tc.diags {
				pos := fset.File(files[d.file].Pos()).LineStart(d.line)
				diags = append(diags, lint.Diagnostic{Pos: pos, Analyzer: d.analyzer, Message: "finding"})
			}
			var got []finding
			for _, d := range lint.Suppress(fset, parsed, diags) {
				pos := fset.Position(d.Pos)
				got = append(got, finding{pos.Filename, pos.Line, d.Analyzer})
			}
			if len(got) != len(tc.want) {
				t.Fatalf("Suppress returned %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Suppress returned %v, want %v", got, tc.want)
				}
			}
		})
	}
}
