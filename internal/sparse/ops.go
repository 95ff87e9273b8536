package sparse

import "slices"

// Transpose returns the transpose of m using a counting sort on column
// indices: O(nnz + rows + cols) time, one pass to count and one to
// scatter. Rows of the result come out sorted because the input rows are
// scanned in order.
func Transpose[T Number](m *CSR[T]) *CSR[T] {
	t := &CSR[T]{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]Index, m.NNZ()),
		Val:    make([]T, m.NNZ()),
	}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int64, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			p := next[j]
			next[j]++
			t.ColIdx[p] = Index(i)
			t.Val[p] = vals[k]
		}
	}
	return t
}

// Tril returns the strictly lower triangular part of m (entries with
// column < row). Triangle counting uses C = L ⊙ (L×L^T) style
// formulations over the lower triangle.
func Tril[T Number](m *CSR[T]) *CSR[T] {
	return filterCSR(m, func(i int, j Index) bool { return int(j) < i })
}

// Triu returns the strictly upper triangular part of m.
func Triu[T Number](m *CSR[T]) *CSR[T] {
	return filterCSR(m, func(i int, j Index) bool { return int(j) > i })
}

// DropDiagonal removes diagonal entries; adjacency matrices of simple
// graphs have none, and generators use this to enforce that.
func DropDiagonal[T Number](m *CSR[T]) *CSR[T] {
	return filterCSR(m, func(i int, j Index) bool { return int(j) != i })
}

func filterCSR[T Number](m *CSR[T], keep func(i int, j Index) bool) *CSR[T] {
	out := &CSR[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int64, m.Rows+1),
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if keep(i, j) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// Symmetrize returns m ∨ m^T structurally: the value at (i,j) is the sum
// of the values stored at (i,j) and (j,i), and a diagonal entry is taken
// once. Used to turn directed generator output into undirected adjacency
// matrices. m must be square and satisfy Check. Row i of the result
// merges row i of m with row i of Transpose(m), once to count and once
// to fill, with no sort.
func Symmetrize[T Number](m *CSR[T]) *CSR[T] {
	if m.Rows != m.Cols {
		panic("sparse: Symmetrize of a non-square matrix")
	}
	t := Transpose(m)
	out := &CSR[T]{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + int64(mergeRows(i, m, t, nil, nil))
	}
	out.ColIdx, out.Val = make([]Index, out.NNZ()), make([]T, out.NNZ())
	for i := 0; i < m.Rows; i++ {
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		mergeRows(i, m, t, out.ColIdx[lo:hi], out.Val[lo:hi])
	}
	return out
}

// mergeRows merges row i of m and of t into (cols, vals), or only counts
// when cols is nil, and returns the merged length. A column in both rows
// sums its two values, except the diagonal, which is taken once.
func mergeRows[T Number](i int, m, t *CSR[T], cols []Index, vals []T) int {
	a, av := m.Row(i)
	b, bv := t.Row(i)
	if slices.Equal(a, b) { // row i and column i hold the same positions
		for k := 0; cols != nil && k < len(a); k++ {
			cols[k], vals[k] = a[k], av[k]
			if int(a[k]) != i {
				vals[k] += bv[k]
			}
		}
		return len(a)
	}
	k, p, q := 0, 0, 0
	for ; p < len(a) && q < len(b); k++ {
		j, v := a[p], av[p]
		switch {
		case a[p] > b[q]:
			j, v = b[q], bv[q]
			q++
		case a[p] == b[q]:
			if int(j) != i {
				v += bv[q]
			}
			p, q = p+1, q+1
		default:
			p++
		}
		if cols != nil {
			cols[k], vals[k] = j, v
		}
	}
	if cols != nil { // at most one of the rows has a tail left
		copy(cols[k:], a[p:])
		copy(vals[k:], av[p:])
		copy(cols[k:], b[q:])
		copy(vals[k:], bv[q:])
	}
	return k + len(a) - p + len(b) - q
}

// Equal reports whether a and b have identical shape, structure, and
// values.
func Equal[T Number](a, b *CSR[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// EqualPattern reports whether a and b have identical shape and
// structure, ignoring values. Masks are structural, so pattern equality
// is the right comparison for mask-producing transforms.
func EqualPattern[T, U Number](a *CSR[T], b *CSR[U]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
	}
	return true
}

// SumValues returns the sum of all stored values. Triangle counting
// reduces the masked product with this.
func SumValues[T Number](m *CSR[T]) T {
	var s T
	for _, v := range m.Val {
		s += v
	}
	return s
}
