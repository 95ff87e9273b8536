package core

import (
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sparse"
)

// BuildSolvePlan runs the solve planner as SolveTriInto would for a run
// on workers workers. Exported to the external test package only: the
// differential test in solve_policy_test.go imports internal/model,
// which imports this package.
func BuildSolvePlan[T sparse.Number](l *sparse.CSR[T], so SolveOpts, workers int) (*exec.SolvePlan, error) {
	so = so.resolve(workers)
	if err := so.validate(l.Rows); err != nil {
		return nil, err
	}
	return buildSolvePlan(l, so)
}
