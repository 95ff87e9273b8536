package model

import (
	"testing"

	"maskedspgemm/internal/sparse"
)

// tridiag builds the banded worst case: a lower bidiagonal chain where
// every row depends on the previous one.
func tridiag(n int) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := 0; i < n; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i), 2)
		if i > 0 {
			coo.Add(sparse.Index(i), sparse.Index(i-1), 1)
		}
	}
	return coo.ToCSR()
}

func TestExtractSolveFeatures(t *testing.T) {
	n := 1024
	f := ExtractSolve(tridiag(n), nil)
	if f.Rows != n {
		t.Fatalf("Rows = %d, want %d", f.Rows, n)
	}
	if f.Work != int64(2*n-1) {
		t.Fatalf("Work = %d, want %d", f.Work, 2*n-1)
	}
	// Masked extraction restricts the work to the mask.
	mask := []sparse.Index{0, 1, 2, 3}
	fm := ExtractSolve(tridiag(n), mask)
	if fm.Rows != 4 || fm.Work != 7 {
		t.Fatalf("masked features = %+v, want Rows=4 Work=7", fm)
	}
}
