package sparse

import (
	"sort"
	"sync"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
// Row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]] and the matching value
// slice. Rows must be sorted by column index with no duplicates; Check
// verifies this. All kernels in internal/core assume the invariant, and
// the co-iteration kernel (paper Fig. 7) depends on it for binary search.
type CSR[T Number] struct {
	Rows, Cols int
	RowPtr     []int64 // len Rows+1, non-decreasing
	ColIdx     []Index // len nnz
	Val        []T     // len nnz
}

// NewCSR allocates an empty matrix with the given shape and a zeroed
// row-pointer array, ready to be filled row by row.
func NewCSR[T Number](rows, cols int, nnzCap int64) *CSR[T] {
	return &CSR[T]{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]Index, 0, nnzCap),
		Val:    make([]T, 0, nnzCap),
	}
}

// NNZ returns the number of stored entries.
func (m *CSR[T]) NNZ() int64 { return m.RowPtr[m.Rows] }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR[T]) RowNNZ(i int) int64 { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i as sub-slices of
// the matrix storage. Callers must not append to them.
func (m *CSR[T]) Row(i int) ([]Index, []T) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// RowCols returns only the column indices of row i.
func (m *CSR[T]) RowCols(i int) []Index {
	return m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
}

// At returns the entry at (i, j), or zero if it is not stored. Lookup is
// a binary search within the row: O(log nnz(row)).
func (m *CSR[T]) At(i int, j Index) T {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(p int) bool { return cols[p] >= j })
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	var zero T
	return zero
}

// Has reports whether (i, j) is a stored entry.
func (m *CSR[T]) Has(i int, j Index) bool {
	cols := m.RowCols(i)
	k := sort.Search(len(cols), func(p int) bool { return cols[p] >= j })
	return k < len(cols) && cols[k] == j
}

// AppendRow appends one complete row (which must be sorted and
// duplicate-free) to a matrix being built top to bottom. The row index
// is implicit: the first call fills row 0, the next row 1, and so on,
// tracked by the caller via FinishRow-style usage. It updates RowPtr for
// row i = number of rows appended so far.
func (m *CSR[T]) AppendRow(i int, cols []Index, vals []T) {
	m.ColIdx = append(m.ColIdx, cols...)
	m.Val = append(m.Val, vals...)
	m.RowPtr[i+1] = int64(len(m.ColIdx))
}

// Clone returns a deep copy.
func (m *CSR[T]) Clone() *CSR[T] {
	c := &CSR[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]Index(nil), m.ColIdx...),
		Val:    append([]T(nil), m.Val...),
	}
	return c
}

// Pattern returns a copy with every stored value replaced by one. Masks
// in GraphBLAS are structural ("the mask is treated as Boolean", paper
// §IV-A); Pattern makes that explicit in tests and examples.
func (m *CSR[T]) Pattern() *CSR[T] {
	c := m.Clone()
	for i := range c.Val {
		c.Val[i] = 1
	}
	return c
}

// SortRows sorts each row by column index in place. Duplicates are not
// merged; build through COO.ToCSR when duplicates are possible.
func (m *CSR[T]) SortRows() {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		cols := m.ColIdx[lo:hi]
		vals := m.Val[lo:hi]
		if sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
			continue
		}
		sort.Sort(&rowSorter[T]{cols, vals})
	}
}

type rowSorter[T Number] struct {
	cols []Index
	vals []T
}

func (s *rowSorter[T]) Len() int           { return len(s.cols) }
func (s *rowSorter[T]) Less(a, b int) bool { return s.cols[a] < s.cols[b] }
func (s *rowSorter[T]) Swap(a, b int) {
	s.cols[a], s.cols[b] = s.cols[b], s.cols[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
}

// Check validates every CSR invariant: pointer monotonicity, index
// bounds, sorted duplicate-free rows, and slice length consistency. It
// never panics, even on arbitrarily corrupted input: pointers are
// bounds-checked against nnz before any row is sliced.
func (m *CSR[T]) Check() error {
	if err := m.checkHeader(); err != nil {
		return err
	}
	return m.checkRows(0, m.Rows)
}

// CheckParallel is Check with the per-row validation split across p
// goroutines. It reports the same deterministic first error (lowest
// offending row) as Check regardless of p. p ≤ 1, or a matrix below the
// parallel cutoff, runs serially.
func (m *CSR[T]) CheckParallel(p int) error {
	if err := m.checkHeader(); err != nil {
		return err
	}
	const cutoff = 1 << 14
	if p > m.Rows {
		p = m.Rows
	}
	if p <= 1 || m.Rows < cutoff {
		return m.checkRows(0, m.Rows)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo := m.Rows * w / p
		hi := m.Rows * (w + 1) / p
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = m.checkRows(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkHeader validates the shape-level invariants that the per-row
// checks rely on to be panic-free.
func (m *CSR[T]) checkHeader() error {
	if m.Rows < 0 || m.Cols < 0 {
		return malformed("negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return malformed("len(RowPtr)=%d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return malformed("RowPtr[0]=%d, want 0", m.RowPtr[0])
	}
	nnz := m.RowPtr[m.Rows]
	if nnz < 0 {
		return malformed("negative nnz %d", nnz)
	}
	if int64(len(m.ColIdx)) != nnz || int64(len(m.Val)) != nnz {
		return malformed("len(ColIdx)=%d len(Val)=%d, want nnz=%d",
			len(m.ColIdx), len(m.Val), nnz)
	}
	return nil
}

// checkRows validates rows [lo, hi). The header must already have been
// validated.
func (m *CSR[T]) checkRows(lo, hi int) error {
	nnz := m.RowPtr[m.Rows]
	for i := lo; i < hi; i++ {
		// Full bounds check before slicing: a monotone-looking prefix can
		// still point past nnz (e.g. RowPtr = [0, 100, 5] with nnz = 5),
		// which would make RowCols panic.
		if m.RowPtr[i] < 0 || m.RowPtr[i] > m.RowPtr[i+1] || m.RowPtr[i+1] > nnz {
			return malformed("RowPtr not monotone in [0,nnz] at row %d: [%d,%d], nnz=%d",
				i, m.RowPtr[i], m.RowPtr[i+1], nnz)
		}
		cols := m.RowCols(i)
		for k, c := range cols {
			if c < 0 || int(c) >= m.Cols {
				return malformed("row %d: column %d out of range [0,%d)", i, c, m.Cols)
			}
			if k > 0 && cols[k-1] >= c {
				return malformed("row %d: columns not strictly increasing at position %d", i, k)
			}
		}
	}
	return nil
}
