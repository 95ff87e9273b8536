package model

import "maskedspgemm/internal/sparse"

// The structural features the triangular-solve policy decides on. The
// policy lives in internal/core next to buildSolvePlan, which gathers
// the same quantities in its own pass; this independent pass is the
// reference a differential test holds the planner to
// (internal/core/solve_policy_test.go) and what the benchmark ledger
// times as model.extract_solve_us.

// SolveFeatures are the structural quantities the solve policy decides
// on, computable in one O(n + nnz-restricted) pass over the operand
// structure (no level-set construction needed).
type SolveFeatures struct {
	// Rows is the number of solved rows (the mask size, or n unmasked).
	Rows int
	// Work is the Eq. 2 total row work of the solve: stored entries on
	// the solved rows, restricted to the mask.
	Work int64
	// AvgRowWork is Work / Rows.
	AvgRowWork float64
}

// ExtractSolve computes the solve features of L·x = b under an optional
// row mask (nil or empty = all rows). The solve itself has no mask:
// internal/core's planner matches the nil-mask features.
func ExtractSolve[T sparse.Number](l *sparse.CSR[T], mask []sparse.Index) SolveFeatures {
	n := l.Rows
	var f SolveFeatures
	if n == 0 {
		return f
	}
	var inMask []uint8
	if len(mask) > 0 {
		inMask = make([]uint8, n)
		for _, r := range mask {
			if int(r) < n {
				inMask[r] = 1
			}
		}
		f.Rows = len(mask)
	} else {
		f.Rows = n
	}
	visit := func(i int) {
		for _, j := range l.RowCols(i) {
			if inMask == nil || inMask[j] != 0 {
				f.Work++
			}
		}
	}
	if len(mask) > 0 {
		for _, r := range mask {
			if int(r) < n {
				visit(int(r))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			visit(i)
		}
	}
	if f.Rows > 0 {
		f.AvgRowWork = float64(f.Work) / float64(f.Rows)
	}
	return f
}
