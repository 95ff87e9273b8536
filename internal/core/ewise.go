package core

import (
	"fmt"
	"slices"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// EWiseAdd computes the element-wise "union" combination of a and b:
// positions present in both matrices combine with the semiring's Plus;
// positions present in exactly one keep their value (GraphBLAS
// eWiseAdd semantics — the additive identity is implicit, not applied).
//
// Rows merge straight into the output. A maximal run of rows in which
// one operand is empty is the other operand's rows unchanged, appended
// in one copy with its row pointers rebased — the common case when a
// hypersparse frontier is folded into a visited set.
func EWiseAdd[T sparse.Number, S semiring.Semiring[T]](
	sr S, a, b *sparse.CSR[T],
) (*sparse.CSR[T], error) {
	return EWiseAddInto(sr, nil, a, b)
}

// EWiseAddInto is EWiseAdd writing the union into dst's storage, which
// it overwrites, grows as needed and returns; a nil dst allocates. dst
// must not share storage with a or b. A caller that double-buffers (BC's
// visited set) stops allocating a matrix per level.
func EWiseAddInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, dst, a, b *sparse.CSR[T],
) (*sparse.CSR[T], error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: A %dx%d, B %dx%d",
			sparse.ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst == nil {
		dst = new(sparse.CSR[T])
	}
	// RowPtr[0] is 0 in a CSR's storage and in fresh storage alike.
	nnz := int(a.NNZ() + b.NNZ())
	*dst = sparse.CSR[T]{
		Rows: a.Rows, Cols: a.Cols,
		RowPtr: slices.Grow(dst.RowPtr[:0], a.Rows+1)[:a.Rows+1],
		ColIdx: slices.Grow(dst.ColIdx[:0], nnz),
		Val:    slices.Grow(dst.Val[:0], nnz),
	}
	for i := 0; i < a.Rows; {
		if j := emptyRunEnd(a, i); j > i {
			appendRows(dst, b, i, j)
			i = j
			continue
		}
		if j := emptyRunEnd(b, i); j > i {
			appendRows(dst, a, i, j)
			i = j
			continue
		}
		aCols, aVals := a.Row(i)
		bCols, bVals := b.Row(i)
		p, q := 0, 0
		for p < len(aCols) && q < len(bCols) {
			switch {
			case aCols[p] < bCols[q]:
				dst.ColIdx = append(dst.ColIdx, aCols[p])
				dst.Val = append(dst.Val, aVals[p])
				p++
			case aCols[p] > bCols[q]:
				dst.ColIdx = append(dst.ColIdx, bCols[q])
				dst.Val = append(dst.Val, bVals[q])
				q++
			default:
				dst.ColIdx = append(dst.ColIdx, aCols[p])
				dst.Val = append(dst.Val, sr.Plus(aVals[p], bVals[q]))
				p++
				q++
			}
		}
		// At most one operand has entries left; they close the row.
		dst.ColIdx = append(append(dst.ColIdx, aCols[p:]...), bCols[q:]...)
		dst.Val = append(append(dst.Val, aVals[p:]...), bVals[q:]...)
		dst.RowPtr[i+1] = int64(len(dst.ColIdx))
		i++
	}
	return dst, nil
}

// emptyRunEnd returns the end of the maximal run of empty rows of m
// starting at row i: i itself when row i has entries.
func emptyRunEnd[T sparse.Number](m *sparse.CSR[T], i int) int {
	j := i
	for j < m.Rows && m.RowPtr[j+1] == m.RowPtr[i] {
		j++
	}
	return j
}

// appendRows appends rows [lo, hi) of src to out, which is being built
// top to bottom and has reached row lo: one copy of the rows' entries,
// with their row pointers rebased onto out's.
func appendRows[T sparse.Number](out, src *sparse.CSR[T], lo, hi int) {
	shift := int64(len(out.ColIdx)) - src.RowPtr[lo]
	out.ColIdx = append(out.ColIdx, src.ColIdx[src.RowPtr[lo]:src.RowPtr[hi]]...)
	out.Val = append(out.Val, src.Val[src.RowPtr[lo]:src.RowPtr[hi]]...)
	for r := lo; r < hi; r++ {
		out.RowPtr[r+1] = src.RowPtr[r+1] + shift
	}
}
