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
	// BandFrac estimates dependency depth: the fraction of off-diagonal
	// entries within a narrow band of the diagonal. Banded systems
	// produce long dependency chains (deep, narrow level sets) where
	// waves buy little; scattered systems produce shallow wide level
	// sets where waves shine.
	BandFrac float64
}

// ExtractSolve computes the solve features of op(L)·x = b under an
// optional row mask (nil or empty = all rows). The band window is
// max(1, n/64) — narrow relative to the matrix, wide enough to catch
// tridiagonal-like chains.
func ExtractSolve[T sparse.Number](l *sparse.CSR[T], mask []sparse.Index) SolveFeatures {
	n := l.Rows
	var f SolveFeatures
	if n == 0 {
		return f
	}
	band := int64(n / 64)
	if band < 1 {
		band = 1
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
	var offDiag, banded int64
	visit := func(i int) {
		for _, j := range l.RowCols(i) {
			jj := int(j)
			if inMask != nil && inMask[jj] == 0 {
				continue
			}
			f.Work++
			if jj == i {
				continue
			}
			offDiag++
			d := int64(i - jj)
			if d < 0 {
				d = -d
			}
			if d <= band {
				banded++
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
	if offDiag > 0 {
		f.BandFrac = float64(banded) / float64(offDiag)
	}
	return f
}
