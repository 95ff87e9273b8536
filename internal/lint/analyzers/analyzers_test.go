package analyzers_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"maskedspgemm/internal/lint/analyzers"
)

// TestAll checks every analyzer of the suite can be named in a
// //lint:ignore directive and is documented: a lower-case name that is
// unique and not one Suppress reserves ("all", "lintdirective"), a Doc
// line, something to run, and a section in docs/LINTING.md.
func TestAll(t *testing.T) {
	doc, err := os.ReadFile("../../../docs/LINTING.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[a-z][a-z0-9]*$`)
	seen := map[string]bool{"all": true, "lintdirective": true}
	for _, a := range analyzers.All() {
		t.Run(a.Name, func(t *testing.T) {
			if !name.MatchString(a.Name) {
				t.Errorf("name %q is not a lower-case word", a.Name)
			}
			if seen[a.Name] {
				t.Errorf("name %q is reserved or already taken", a.Name)
			}
			seen[a.Name] = true
			if a.Doc == "" {
				t.Error("no Doc")
			}
			if a.Run == nil && a.RunProgram == nil {
				t.Error("neither Run nor RunProgram is set")
			}
			if !strings.Contains(string(doc), "\n### "+a.Name+"\n") {
				t.Errorf("docs/LINTING.md has no \"### %s\" section", a.Name)
			}
		})
	}
}
