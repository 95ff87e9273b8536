package core

import "maskedspgemm/internal/sparse"

// ProductionCrossover is the tile crossover the package ships with,
// which TestMain overrides for the in-package suite; exported to the
// external test package for BenchmarkHypersparseProduct.
var ProductionCrossover = productionCrossover

// SolveSerialInOrder runs solveSerial, the loop every serial solve runs,
// over an unmasked operand: rows in the given order front to back, or
// all rows ascending when rows is nil. Exported to the external test
// package only, for BenchmarkSolveOrder, which needs the corpus graphs
// of internal/bench (which imports this package).
func SolveSerialInOrder[T sparse.Number](dst []T, l *sparse.CSR[T], b []T, rows []sparse.Index) error {
	return solveSerial(nil, l, dst, b, nil, rows, true)
}
