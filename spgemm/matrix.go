// Package spgemm is the public API of this repository: a GraphBLAS-style
// masked sparse matrix-matrix multiplication library,
//
//	C = M ⊙ (A × B)
//
// running the configuration recommended by "To tile or not to tile, that
// is the question" (IPDPSW 2024) — hybrid iteration, FLOP-balanced tiles
// claimed dynamically, and the sparse accumulator derived per product —
// plus the graph algorithms built on the kernel: triangle counting,
// k-truss, BFS, and betweenness centrality. The study's full tuning
// surface is internal/core.Config, swept by cmd/spgemm-bench.
//
// Quick start:
//
//	a, _ := spgemm.ReadMatrixMarket(f)
//	c, _ := spgemm.MxM(a, a, a, spgemm.Defaults()) // C = A ⊙ (A×A)
//	tri, _ := spgemm.TriangleCount(a, spgemm.Defaults())
package spgemm

import (
	"fmt"
	"io"

	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/sparse"
)

// Matrix is an immutable sparse matrix in CSR form with float64 values.
// Masks are structural: only the presence of entries matters when a
// Matrix is used as the mask operand.
type Matrix struct {
	csr *sparse.CSR[float64]
}

// wrap adopts an internal CSR (no copy).
func wrap(m *sparse.CSR[float64]) *Matrix { return &Matrix{csr: m} }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.csr.Rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.csr.Cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int64 { return m.csr.NNZ() }

// At returns the value stored at (i, j), or 0 if absent.
func (m *Matrix) At(i, j int) float64 { return m.csr.At(i, sparse.Index(j)) }

// Has reports whether (i, j) is a stored entry.
func (m *Matrix) Has(i, j int) bool { return m.csr.Has(i, sparse.Index(j)) }

// Row returns copies of row i's column indices and values.
func (m *Matrix) Row(i int) ([]int32, []float64) {
	cols, vals := m.csr.Row(i)
	return append([]int32(nil), cols...), append([]float64(nil), vals...)
}

// Sum returns the sum of all stored values.
func (m *Matrix) Sum() float64 { return sparse.SumValues(m.csr) }

// Triple is one (row, col, value) entry for matrix construction.
type Triple struct {
	Row, Col int
	Val      float64
}

// FromTriples builds a rows×cols matrix from entries in any order;
// duplicate positions sum.
func FromTriples(rows, cols int, entries []Triple) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: negative shape %dx%d", ErrShape, rows, cols)
	}
	coo := sparse.NewCOO[float64](rows, cols, int64(len(entries)))
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrInvalidMatrix, e.Row, e.Col, rows, cols)
		}
		coo.Add(sparse.Index(e.Row), sparse.Index(e.Col), e.Val)
	}
	return wrap(coo.ToCSR()), nil
}

// FromEdges builds the adjacency matrix of an undirected simple graph on
// n vertices: both orientations of every edge are stored with value 1,
// self-loops are dropped, duplicates collapse.
func FromEdges(n int, edges [][2]int) (*Matrix, error) {
	coo := sparse.NewCOO[float64](n, n, int64(2*len(edges)))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrInvalidMatrix, u, v, n)
		}
		if u == v {
			continue
		}
		coo.Add(sparse.Index(u), sparse.Index(v), 1)
		coo.Add(sparse.Index(v), sparse.Index(u), 1)
	}
	m := coo.ToCSR()
	for i := range m.Val {
		m.Val[i] = 1
	}
	return wrap(m), nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream (real,
// integer or pattern; general or symmetric).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	m, err := mtx.Read(r)
	if err != nil {
		return nil, err
	}
	return wrap(m), nil
}

// WriteMatrixMarket serializes m as a general real coordinate stream.
func (m *Matrix) WriteMatrixMarket(w io.Writer) error { return mtx.Write(w, m.csr) }

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix { return wrap(sparse.Transpose(m.csr)) }

// Tril returns the strictly lower triangular part.
func (m *Matrix) Tril() *Matrix { return wrap(sparse.Tril(m.csr)) }

// Triu returns the strictly upper triangular part.
func (m *Matrix) Triu() *Matrix { return wrap(sparse.Triu(m.csr)) }

// Pattern returns a copy with all stored values set to 1.
func (m *Matrix) Pattern() *Matrix { return wrap(m.csr.Pattern()) }

// Symmetrize returns m ∨ mᵀ with summed values.
func (m *Matrix) Symmetrize() *Matrix { return wrap(sparse.Symmetrize(m.csr)) }

// Equal reports whether two matrices are identical in shape, structure
// and values.
func (m *Matrix) Equal(o *Matrix) bool { return sparse.Equal(m.csr, o.csr) }

// Stats summarizes the structural features that drive kernel
// performance.
type Stats struct {
	Rows, Cols int
	NNZ        int64
	MaxRowNNZ  int64
	AvgRowNNZ  float64
	Symmetric  bool
}

// Stats scans the matrix and returns its structural statistics.
func (m *Matrix) Stats() Stats {
	s := sparse.ComputeStats(m.csr, true)
	return Stats{
		Rows: s.Rows, Cols: s.Cols, NNZ: s.NNZ,
		MaxRowNNZ: s.MaxRowNNZ, AvgRowNNZ: s.AvgRowNNZ, Symmetric: s.Symmetric,
	}
}
