package sparse

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
// of the values stored at (i,j) and (j,i). Used to turn directed
// generator output into undirected adjacency matrices.
func Symmetrize[T Number](m *CSR[T]) *CSR[T] {
	coo := NewCOO[T](m.Rows, m.Cols, 2*m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			coo.Add(Index(i), j, vals[k])
			if int(j) != i {
				coo.Add(j, Index(i), vals[k])
			}
		}
	}
	return coo.ToCSR()
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
