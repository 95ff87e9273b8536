// Package analyzers enumerates the spgemm-lint analyzer suite in one
// place, so the multichecker binary and any future tooling agree on
// what "the suite" is.
package analyzers

import (
	"maskedspgemm/internal/lint"
	"maskedspgemm/internal/lint/errtaxonomy"
	"maskedspgemm/internal/lint/goroutineleak"
	"maskedspgemm/internal/lint/hotpathalloc"
)

// All returns the full analyzer suite in deterministic order. Each
// analyzer guards a defect class no test catches (docs/LINTING.md,
// "What each analyzer catches").
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		errtaxonomy.Analyzer,
		goroutineleak.Analyzer,
		hotpathalloc.Analyzer,
	}
}
