// Command spgemm-lint runs the repository's custom analyzer suite
// (internal/lint/...) over the given packages — ./... by default — and
// exits non-zero if any analyzer reports a finding.
//
// Usage:
//
//	spgemm-lint [packages]
//
// Findings print as file:line:col: [analyzer] message, one per line.
// Suppress an individual finding with a //lint:ignore directive; see
// docs/LINTING.md.
//
// Exit status: 0 when the packages are clean, 1 when there are
// findings, 2 when the packages cannot be loaded or an analyzer fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"maskedspgemm/internal/lint"
	"maskedspgemm/internal/lint/analyzers"
)

func main() {
	flag.Parse()
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spgemm-lint:", err)
		os.Exit(2)
	}
	os.Exit(run(dir, flag.Args(), os.Stdout, os.Stderr))
}

// run lints patterns, resolved from dir, and returns the exit status.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "spgemm-lint:", err)
		return 2
	}
	diags, err := lint.Run(prog, analyzers.All())
	if err != nil {
		fmt.Fprintln(stderr, "spgemm-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: [%s] %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "spgemm-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
