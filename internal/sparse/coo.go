package sparse

import "slices"

// COO is a sparse matrix in coordinate (triplet) format. It is the
// staging format for matrix construction: generators and the
// MatrixMarket reader emit triples in arbitrary order, and ToCSR turns
// them into the kernel-ready representation, summing the duplicates of
// each position in the order they were added.
type COO[T Number] struct {
	Rows, Cols int
	I, J       []Index
	V          []T
}

// NewCOO allocates an empty triplet matrix with the given shape.
func NewCOO[T Number](rows, cols int, nnzCap int64) *COO[T] {
	return &COO[T]{
		Rows: rows,
		Cols: cols,
		I:    make([]Index, 0, nnzCap),
		J:    make([]Index, 0, nnzCap),
		V:    make([]T, 0, nnzCap),
	}
}

// Add appends one triple. No deduplication happens here; ToCSR sums
// duplicates.
func (c *COO[T]) Add(i, j Index, v T) {
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// NNZ returns the number of stored triples (including duplicates).
func (c *COO[T]) NNZ() int64 { return int64(len(c.I)) }

// ToCSR converts to CSR, leaving c as it was. Duplicate positions sum
// in the order they were added, and a sum of zero stays a stored entry
// (GraphBLAS semantics). Rows come out sorted, so the result satisfies
// CSR.Check, and ColIdx and Val hold exactly nnz entries. Every index
// must lie inside the shape.
//
// Two stable counting passes order the triples, with no comparison: the
// first buckets them by column, in input order, as the rows of a
// Cols×Rows matrix, and the second is that matrix's Transpose. Each row
// then holds its entries in column order, with the duplicates of a
// position adjacent and in input order, and one pass per row sums them.
func (c *COO[T]) ToCSR() *CSR[T] {
	nnz := len(c.I)
	t := &CSR[T]{Rows: c.Cols, Cols: c.Rows, RowPtr: make([]int64, c.Cols+1),
		ColIdx: make([]Index, nnz), Val: make([]T, nnz)}
	for _, j := range c.J {
		t.RowPtr[j+1]++
	}
	for j := 0; j < c.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := slices.Clone(t.RowPtr[:c.Cols])
	for k, j := range c.J {
		t.ColIdx[next[j]], t.Val[next[j]] = c.I[k], c.V[k]
		next[j]++
	}
	m := Transpose(t)
	var w int64
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		m.RowPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > m.RowPtr[i] && m.ColIdx[w-1] == m.ColIdx[k] {
				m.Val[w-1] += m.Val[k]
				continue
			}
			m.ColIdx[w], m.Val[w] = m.ColIdx[k], m.Val[k]
			w++
		}
	}
	m.RowPtr[m.Rows] = w
	if w < int64(nnz) {
		m.ColIdx = append(make([]Index, 0, w), m.ColIdx[:w]...)
		m.Val = append(make([]T, 0, w), m.Val[:w]...)
	}
	return m
}
