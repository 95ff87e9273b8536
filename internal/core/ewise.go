package core

import (
	"fmt"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// EWiseAdd computes the element-wise "union" combination of a and b:
// positions present in both matrices combine with the semiring's Plus;
// positions present in exactly one keep their value (GraphBLAS
// eWiseAdd semantics — the additive identity is implicit, not applied).
func EWiseAdd[T sparse.Number, S semiring.Semiring[T]](
	sr S, a, b *sparse.CSR[T],
) (*sparse.CSR[T], error) {
	return EWiseAddWS(sr, a, b, nil)
}

// EWiseAddWS is EWiseAdd staging rows in ws's scratch slices instead of
// per-call locals, so iterative callers (BC's dependency accumulation)
// stop paying the row-staging allocation each round. ws may be nil.
//
// A maximal run of rows in which one operand is empty is the other
// operand's rows unchanged, so it is appended in one copy with its row
// pointers rebased instead of being merged row by row — the common case
// when a hypersparse frontier is folded into a visited set. The output
// is the same entry for entry.
func EWiseAddWS[T sparse.Number, S semiring.Semiring[T]](
	sr S, a, b *sparse.CSR[T], ws *exec.Workspace[T, S],
) (*sparse.CSR[T], error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: A %dx%d, B %dx%d",
			sparse.ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := sparse.NewCSR[T](a.Rows, a.Cols, a.NNZ()+b.NNZ())
	cols, vals := stagingFor(ws)
	for i := 0; i < a.Rows; {
		if j := emptyRunEnd(a, i); j > i {
			appendRows(out, b, i, j)
			i = j
			continue
		}
		if j := emptyRunEnd(b, i); j > i {
			appendRows(out, a, i, j)
			i = j
			continue
		}
		aCols, aVals := a.Row(i)
		bCols, bVals := b.Row(i)
		cols = cols[:0]
		vals = vals[:0]
		p, q := 0, 0
		for p < len(aCols) && q < len(bCols) {
			switch {
			case aCols[p] < bCols[q]:
				cols = append(cols, aCols[p])
				vals = append(vals, aVals[p])
				p++
			case aCols[p] > bCols[q]:
				cols = append(cols, bCols[q])
				vals = append(vals, bVals[q])
				q++
			default:
				cols = append(cols, aCols[p])
				vals = append(vals, sr.Plus(aVals[p], bVals[q]))
				p++
				q++
			}
		}
		for ; p < len(aCols); p++ {
			cols = append(cols, aCols[p])
			vals = append(vals, aVals[p])
		}
		for ; q < len(bCols); q++ {
			cols = append(cols, bCols[q])
			vals = append(vals, bVals[q])
		}
		out.AppendRow(i, cols, vals)
		i++
	}
	stagingStore(ws, cols, vals)
	return out, nil
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

// EWiseMult computes the element-wise "intersection" combination:
// positions present in both matrices combine with the semiring's Times;
// all other positions vanish (GraphBLAS eWiseMult semantics). With
// PlusTimes this is the Hadamard product; with a pattern operand it is
// structural masking with values.
func EWiseMult[T sparse.Number, S semiring.Semiring[T]](
	sr S, a, b *sparse.CSR[T],
) (*sparse.CSR[T], error) {
	return EWiseMultWS(sr, a, b, nil)
}

// EWiseMultWS is EWiseMult staging rows in ws's scratch slices; ws may
// be nil. See EWiseAddWS.
func EWiseMultWS[T sparse.Number, S semiring.Semiring[T]](
	sr S, a, b *sparse.CSR[T], ws *exec.Workspace[T, S],
) (*sparse.CSR[T], error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: A %dx%d, B %dx%d",
			sparse.ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	nnzCap := a.NNZ()
	if b.NNZ() < nnzCap {
		nnzCap = b.NNZ()
	}
	out := sparse.NewCSR[T](a.Rows, a.Cols, nnzCap)
	cols, vals := stagingFor(ws)
	for i := 0; i < a.Rows; i++ {
		aCols, aVals := a.Row(i)
		bCols, bVals := b.Row(i)
		cols = cols[:0]
		vals = vals[:0]
		p, q := 0, 0
		for p < len(aCols) && q < len(bCols) {
			switch {
			case aCols[p] < bCols[q]:
				p++
			case aCols[p] > bCols[q]:
				q++
			default:
				cols = append(cols, aCols[p])
				vals = append(vals, sr.Times(aVals[p], bVals[q]))
				p++
				q++
			}
		}
		out.AppendRow(i, cols, vals)
	}
	stagingStore(ws, cols, vals)
	return out, nil
}

// stagingFor hands out the workspace's append-staging slices (empty,
// capacity preserved), or nil slices when ws is nil.
func stagingFor[T sparse.Number, S semiring.Semiring[T]](
	ws *exec.Workspace[T, S],
) ([]sparse.Index, []T) {
	if ws == nil {
		return nil, nil
	}
	return ws.ScratchCols[:0], ws.ScratchVals[:0]
}

// stagingStore returns grown staging slices to the workspace so the
// capacity carries to the next call.
func stagingStore[T sparse.Number, S semiring.Semiring[T]](
	ws *exec.Workspace[T, S], cols []sparse.Index, vals []T,
) {
	if ws == nil {
		return
	}
	ws.ScratchCols = cols[:0]
	ws.ScratchVals = vals[:0]
}

// ReduceRows folds each row with the semiring's Plus, returning a
// sparse vector with one entry per non-empty row — GraphBLAS's
// GrB_Matrix_reduce to a vector. Triangle-per-vertex counts and k-truss
// support summaries are built from it.
func ReduceRows[T sparse.Number, S semiring.Semiring[T]](sr S, m *sparse.CSR[T]) *SpVec[T] {
	return ReduceRowsInto(sr, m, nil)
}

// ReduceRowsInto is ReduceRows writing into out (reusing its entry
// storage) when non-nil; the iterative hook for k-truss support loops.
func ReduceRowsInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, m *sparse.CSR[T], out *SpVec[T],
) *SpVec[T] {
	if out == nil {
		out = &SpVec[T]{}
	}
	out.Reset(m.Rows)
	for i := 0; i < m.Rows; i++ {
		_, vals := m.Row(i)
		if len(vals) == 0 {
			continue
		}
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = sr.Plus(acc, v)
		}
		out.Idx = append(out.Idx, sparse.Index(i))
		out.Val = append(out.Val, acc)
	}
	return out
}
