// Package linttest runs lint analyzers over fixture packages under a
// testdata/src tree and checks reported diagnostics against // want
// comments — the same contract as x/tools' analysistest, rebuilt on the
// standard library.
//
// A fixture package lives at testdata/src/<importpath>/ and is imported
// by that path; fixtures may import each other and the standard
// library. A // want comment holds one or more quoted regular
// expressions, each of which must be matched by exactly one diagnostic
// reported on that line:
//
//	x := make([]int, n) // want `allocates`
//
// Lines without a want comment must produce no diagnostics.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"maskedspgemm/internal/lint"
)

// Run loads each fixture package in order (dependencies first, so
// cross-package facts flow like in the real driver), applies the
// analyzer, and reports mismatches between diagnostics and // want
// comments as test errors.
func Run(t *testing.T, testdataDir string, a *lint.Analyzer, fixtures ...string) {
	t.Helper()
	prog, err := loadFixtures(testdataDir, fixtures)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := lint.Run(prog, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkWants(t, prog, diags)
}

// Load parses and type-checks the named fixture packages (dependencies
// first) and returns the Program, for tests that drive the framework's
// whole-program machinery (the call graph) directly instead of
// through // want comparisons.
func Load(t *testing.T, testdataDir string, fixtures ...string) *lint.Program {
	t.Helper()
	prog, err := loadFixtures(testdataDir, fixtures)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	return prog
}

// TestdataDir returns the caller's testdata/src directory.
func TestdataDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// WriteModule lays out a module in a fresh temporary directory and
// returns the directory: files maps slash-separated paths relative to
// the module root to their contents, and go.mod is written for module
// path "example.com/m" unless files holds one. It is for tests of the
// loader and the spgemm-lint command, which read a real module through
// the go command.
func WriteModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module example.com/m\n\ngo 1.21\n"
	}
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// stdExportData builds (once per process) the import path → export data
// file map for the whole standard library, via the go command's build
// cache. Fixtures may then import any stdlib package.
func stdExportData() (map[string]string, error) {
	stdExportsOnce.Do(func() {
		out, err := goListExport("std")
		if err != nil {
			stdExportsErr = err
			return
		}
		stdExports = out
	})
	return stdExports, stdExportsErr
}

func goListExport(pattern string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", pattern)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", pattern, err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if ok && file != "" && file != "<nil>" {
			exports[path] = file
		}
	}
	return exports, nil
}

// loadFixtures parses and type-checks the named fixture packages (and,
// recursively, fixture packages they import) from testdataDir.
func loadFixtures(testdataDir string, fixtures []string) (*lint.Program, error) {
	exports, err := stdExportData()
	if err != nil {
		return nil, err
	}
	prog := &lint.Program{
		Fset:  token.NewFileSet(),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	gcImp := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := map[string]*lint.Package{}
	var check func(path string) (*lint.Package, error)
	check = func(path string) (*lint.Package, error) {
		if pkg, ok := checked[path]; ok {
			if pkg == nil {
				return nil, fmt.Errorf("fixture import cycle through %q", path)
			}
			return pkg, nil
		}
		checked[path] = nil
		dir := filepath.Join(testdataDir, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, e.Name()), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("fixture %q has no Go files", path)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{
			Importer: importerFunc(func(ipath string) (*types.Package, error) {
				if _, statErr := os.Stat(filepath.Join(testdataDir, filepath.FromSlash(ipath))); statErr == nil {
					pkg, err := check(ipath)
					if err != nil {
						return nil, err
					}
					return pkg.Types, nil
				}
				return gcImp.Import(ipath)
			}),
			Sizes: prog.Sizes,
		}
		tpkg, err := conf.Check(path, prog.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
		}
		pkg := &lint.Package{ImportPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}
		checked[path] = pkg
		prog.Packages = append(prog.Packages, pkg)
		return pkg, nil
	}
	for _, f := range fixtures {
		if _, err := check(f); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// checkWants matches diagnostics against // want comments 1:1 per line.
func checkWants(t *testing.T, prog *lint.Program, diags []lint.Diagnostic) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	type want struct {
		re   *regexp.Regexp
		used bool
	}
	wants := map[lineKey][]*want{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					key := lineKey{pos.Filename, pos.Line}
					for _, m := range wantRE.FindAllString(rest, -1) {
						pattern := m
						if pattern[0] == '`' {
							pattern = pattern[1 : len(pattern)-1]
						} else if unq, err := strconv.Unquote(pattern); err == nil {
							pattern = unq
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, m, err)
							continue
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	keys := make([]lineKey, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q was not reported", k.file, k.line, w.re)
			}
		}
	}
}
