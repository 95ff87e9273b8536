package core

import "maskedspgemm/internal/sparse"

// ProductionCrossover is the tile crossover the package ships with,
// which TestMain overrides for the in-package suite; exported to the
// external test package for BenchmarkHypersparseProduct.
var ProductionCrossover = productionCrossover

// SolveSerialInOrder runs the kernel every solve runs over a
// lower-triangular operand: all rows through solveSerial when
// rows is nil, as a serial solve does, or the given rows front to back
// through substRows, as a wave's tiles walk them. Exported to the
// external test package only, for BenchmarkSolveOrder, which needs the
// corpus graphs of internal/bench (which imports this package).
func SolveSerialInOrder[T sparse.Number](dst []T, l *sparse.CSR[T], b []T, rows []sparse.Index) (err error) {
	if rows == nil {
		return solveSerial(nil, l, dst, b, true)
	}
	defer func() {
		err = recoverSingular(recover(), err)
	}()
	substRows(l, dst, b, rows, 0, len(rows), true)
	return nil
}

// ForceViewVerdict makes every lower view whose caller states symmetry
// run the merge kernel (merge) or the accumulator path, whatever its
// plan priced, until the returned function restores pricing. Exported
// to the external test package for BenchmarkViewKernels.
func ForceViewVerdict(merge bool) (restore func()) {
	verdictOverride = &merge
	return func() { verdictOverride = nil }
}
