package lint_test

import (
	"strings"
	"testing"

	"maskedspgemm/internal/lint"
	"maskedspgemm/internal/lint/linttest"
)

// TestLoad checks the loader's contract with the analyzers: module
// packages come type-checked from source in dependency order and share
// one package graph, test files stay out, and load failures are errors.
func TestLoad(t *testing.T) {
	t.Run("dependency order and shared identity", func(t *testing.T) {
		dir := linttest.WriteModule(t, map[string]string{
			"a/a.go": "package a\n\nimport \"example.com/m/b\"\n\nfunc A() string { return b.B() }\n",
			"b/b.go": "package b\n\nimport \"strings\"\n\nfunc B() string { return strings.ToUpper(\"b\") }\n",
		})
		prog, err := lint.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, pkg := range prog.Packages {
			paths = append(paths, pkg.ImportPath)
		}
		if got := strings.Join(paths, " "); got != "example.com/m/b example.com/m/a" {
			t.Fatalf("packages %q, want b before its importer a", got)
		}
		b, a := prog.Packages[0], prog.Packages[1]
		// Facts are keyed by types.Object, so a's import of b must be the
		// very package b was checked as, not a second copy from export data.
		imports := a.Types.Imports()
		if len(imports) != 1 || imports[0] != b.Types {
			t.Fatalf("a imports %v, want the source-checked b", imports)
		}
		if len(b.Files) != 1 || len(b.Info.Uses) == 0 {
			t.Fatalf("b: %d files, %d uses; want one type-checked file", len(b.Files), len(b.Info.Uses))
		}
	})

	t.Run("test files are not loaded", func(t *testing.T) {
		dir := linttest.WriteModule(t, map[string]string{
			"p/p.go":      "package p\n\nfunc P() {}\n",
			"p/p_test.go": "package p\n\nfunc helper() { undefined() }\n",
		})
		prog, err := lint.Load(dir, "./...")
		if err != nil {
			t.Fatalf("a test file was type-checked: %v", err)
		}
		if n := len(prog.Packages[0].Files); n != 1 {
			t.Fatalf("loaded %d files, want only p.go", n)
		}
	})

	t.Run("missing package", func(t *testing.T) {
		dir := linttest.WriteModule(t, map[string]string{"p/p.go": "package p\n"})
		if _, err := lint.Load(dir, "./missing"); err == nil {
			t.Fatal("Load of a missing package succeeded")
		}
	})

	t.Run("package that does not compile", func(t *testing.T) {
		dir := linttest.WriteModule(t, map[string]string{
			"p/p.go": "package p\n\nfunc P() int { return \"not an int\" }\n",
		})
		_, err := lint.Load(dir)
		if err == nil || !strings.Contains(err.Error(), "p.go:3:") {
			t.Fatalf("err = %v, want the compile error at p.go:3", err)
		}
	})
}
