package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"maskedspgemm/internal/lint/linttest"
)

// TestRunExitStatus pins the exit-status contract make lint and CI
// depend on: 0 clean, 1 findings (printed as file:line:col: [analyzer]
// message), 2 when the packages cannot be loaded.
func TestRunExitStatus(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		patterns []string
		status   int
		stdout   []string // substrings the findings output must hold
		stderr   string
	}{
		{
			name: "clean",
			src: `package p

//spgemm:hotpath
func Sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}
`,
			status: 0,
		},
		{
			name: "finding",
			src: `package p

//spgemm:hotpath
func Grow(n int) []int {
	return make([]int, n)
}
`,
			status: 1,
			stdout: []string{filepath.Join("p", "p.go") + ":5:", "[hotpathalloc]"},
			stderr: "1 finding(s)",
		},
		{
			name:     "load error",
			src:      "package p\n",
			patterns: []string{"./missing"},
			status:   2,
			stderr:   "spgemm-lint:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := linttest.WriteModule(t, map[string]string{"p/p.go": tc.src})
			var stdout, stderr bytes.Buffer
			if got := run(dir, tc.patterns, &stdout, &stderr); got != tc.status {
				t.Fatalf("exit status %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.status, &stdout, &stderr)
			}
			if tc.stdout == nil && stdout.Len() != 0 {
				t.Errorf("unexpected findings:\n%s", &stdout)
			}
			for _, s := range tc.stdout {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("findings %q lack %q", stdout.String(), s)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
		})
	}
}
