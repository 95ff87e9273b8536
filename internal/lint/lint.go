// Package lint is a minimal, dependency-free analysis framework in the
// shape of golang.org/x/tools/go/analysis, built for this repository's
// custom analyzers (cmd/spgemm-lint). The container this project builds
// in has no module proxy access, so the framework reimplements the
// small slice of the x/tools driver the analyzers need on the standard
// library alone: package loading (go list + go/types), per-package
// passes, cross-package object facts, and //lint:ignore suppression.
//
// The Analyzer/Pass surface deliberately mirrors go/analysis so the
// suite can be ported to the real multichecker by swapping imports if
// x/tools ever becomes available.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run is invoked once per package, in
// dependency order, so facts exported while analyzing a package are
// visible when its importers are analyzed. RunProgram, when set, is
// invoked once after every per-package pass, with the whole program,
// the cross-package call graph and every exported fact in scope — the
// whole-program layer goroutineleak builds on.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run performs the per-package check, reporting findings via
	// pass.Reportf and publishing summaries via pass.ExportObjectFact.
	// Optional for analyzers that only need the whole-program pass.
	Run func(pass *Pass) error
	// RunProgram performs the whole-program check once, after Run has
	// seen every package. Optional.
	RunProgram func(pass *ProgramPass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	facts *factStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ExportObjectFact attaches a fact to obj, visible to this analyzer's
// later passes over importing packages (objects are shared because all
// packages in a run are type-checked through one importer).
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.facts.set(p.Analyzer.Name, obj, fact)
}

// ObjectFact returns the fact previously attached to obj by this
// analyzer, or nil.
func (p *Pass) ObjectFact(obj types.Object) any {
	return p.facts.get(p.Analyzer.Name, obj)
}

// ProgramPass carries the whole type-checked program to an analyzer's
// RunProgram hook: every module package, the cross-package call graph,
// and read access to the facts the analyzer's per-package passes
// exported.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	// Graph is the program's call graph, built once per Run and shared
	// by every whole-program analyzer.
	Graph *CallGraph

	diags *[]Diagnostic
	facts *factStore
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ObjectFact returns the fact the analyzer's per-package passes
// attached to obj, or nil.
func (p *ProgramPass) ObjectFact(obj types.Object) any {
	return p.facts.get(p.Analyzer.Name, obj)
}

// factStore holds cross-package facts for all analyzers of one run.
type factStore struct {
	m map[factKey]any
}

type factKey struct {
	analyzer string
	obj      types.Object
}

func newFactStore() *factStore { return &factStore{m: map[factKey]any{}} }

func (s *factStore) set(analyzer string, obj types.Object, fact any) {
	s.m[factKey{analyzer, obj}] = fact
}

func (s *factStore) get(analyzer string, obj types.Object) any {
	return s.m[factKey{analyzer, obj}]
}

// Run executes the analyzers over every package of prog in dependency
// order and returns the surviving diagnostics sorted by position.
// Findings carrying a valid //lint:ignore directive are dropped; an
// ignore directive without a reason, or one that silenced nothing, is
// itself reported.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	facts := newFactStore()
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	// Whole-program passes run after every package has been analyzed,
	// sharing one call graph (built lazily: per-package-only suites pay
	// nothing for it).
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(prog)
		}
		pass := &ProgramPass{
			Analyzer: a,
			Prog:     prog,
			Graph:    graph,
			diags:    &diags,
			facts:    facts,
		}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("%s: whole-program pass: %w", a.Name, err)
		}
	}
	diags = Suppress(prog.Fset, allFiles(prog), diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

func allFiles(prog *Program) []*ast.File {
	var files []*ast.File
	for _, pkg := range prog.Packages {
		files = append(files, pkg.Files...)
	}
	return files
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string // checks it silences; ["all"] silences everything
	reason    string
	pos       token.Pos
	used      bool
}

// Suppress filters out diagnostics covered by a //lint:ignore directive
// on the same line or the line immediately above the finding. The
// directive grammar is
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// and the reason is mandatory: a reasonless directive never suppresses
// and is reported as a finding of its own. So is a directive that
// silenced nothing — stale, or naming a check that no longer exists —
// so a suppression cannot outlive the finding it was written for.
func Suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	type lineKey struct {
		file string
		line int
	}
	directives := map[lineKey]*ignoreDirective{}
	var order []*ignoreDirective
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				d := &ignoreDirective{pos: c.Pos()}
				if len(fields) >= 1 {
					d.analyzers = strings.Split(fields[0], ",")
				}
				if len(fields) >= 2 {
					d.reason = strings.Join(fields[1:], " ")
				}
				if len(d.analyzers) == 0 || d.reason == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed //lint:ignore: want \"//lint:ignore <check>[,<check>] <reason>\" (the reason is required)",
						Analyzer: "lintdirective",
					})
					continue
				}
				directives[lineKey{pos.Filename, pos.Line}] = d
				order = append(order, d)
			}
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		dir := directives[lineKey{pos.Filename, pos.Line}]
		if dir == nil {
			dir = directives[lineKey{pos.Filename, pos.Line - 1}]
		}
		if dir != nil && dir.matches(d.Analyzer) {
			dir.used = true
			continue
		}
		kept = append(kept, d)
	}
	for _, d := range order {
		if !d.used {
			bad = append(bad, Diagnostic{
				Pos:      d.pos,
				Message:  "//lint:ignore " + strings.Join(d.analyzers, ",") + " silenced nothing: delete it",
				Analyzer: "lintdirective",
			})
		}
	}
	return append(kept, bad...)
}

func (d *ignoreDirective) matches(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// HasDirective reports whether the comment group contains the given
// machine directive (e.g. "//spgemm:hotpath"). Directives follow the
// standard Go convention: no space after //, anywhere in the group.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
