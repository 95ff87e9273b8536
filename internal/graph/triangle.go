// Package graph builds the graph-analytics workloads that motivate the
// masked-SpGEMM kernel (paper §I): triangle counting — the paper's
// benchmark — plus k-truss and breadth-first search, expressed over the
// kernels in internal/core, and betweenness centrality, Brandes'
// algorithm per source on flat state of its own.
package graph

import (
	"fmt"
	"sync/atomic"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TriangleCount counts triangles in the undirected simple graph whose
// adjacency matrix is a (symmetric, unit values) once each with
// C = L ⊙ (L×L), L the strictly lower triangle of a read in place from
// a's rows (core.MaskedSpGEMMStreamLower; Milaković et al.), so it
// builds nothing and ignores a's diagonal. The product's rows are summed
// as they are gathered; C is never assembled.
//
// The view reads one triangle of a, so a directed a could get a count
// and no error: a's symmetry is read from sym, which remembers it across
// calls (nil: checked in this call, one pass over a), and an asymmetric
// a is ErrInvalidMatrix.
func TriangleCount(a *sparse.CSR[float64], sym *Symmetry, cfg core.Config) (int64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("%w: adjacency must be square, got %dx%d", sparse.ErrShape, a.Rows, a.Cols)
	}
	if !sym.Of(a) {
		return 0, fmt.Errorf("%w: asymmetric adjacency (is the graph symmetric and simple?)", core.ErrInvalidMatrix)
	}
	// a is symmetric in pattern (checked above) and PlusPair ignores
	// values, so the view may merge.
	var t triangleTally
	if err := core.MaskedSpGEMMStreamLower[float64](semiring.PlusPair[float64]{}, a, true, cfg, t.row); err != nil {
		return 0, err
	}
	return t.total.Load(), nil
}

// Symmetry remembers whether one matrix of fixed structure is symmetric:
// the first question checks (sparse.IsSymmetric), later ones read the
// answer, and a matrix symmetric by construction is Set, never checked.
// The zero value knows nothing; a nil *Symmetry remembers nothing.
// Concurrent first questions may each check and store the same answer.
type Symmetry struct {
	state atomic.Int32 // 0 unknown, 1 symmetric, -1 not
}

// Of reports whether a, the matrix s describes, is symmetric.
func (s *Symmetry) Of(a *sparse.CSR[float64]) bool {
	if s == nil {
		return sparse.IsSymmetric(a)
	}
	if st := s.state.Load(); st != 0 {
		return st > 0
	}
	sym := sparse.IsSymmetric(a)
	s.Set(sym)
	return sym
}

// Set records whether the matrix is symmetric.
func (s *Symmetry) Set(symmetric bool) {
	st := int32(-1)
	if symmetric {
		st = 1
	}
	s.state.Store(st)
}

// Inherit copies what from knows, for a matrix of from's structure.
func (s *Symmetry) Inherit(from *Symmetry) { s.state.Store(from.state.Load()) }

// triangleTally sums a PlusPair product's rows (integer counts) with
// one atomic add per nonempty row.
type triangleTally struct{ total atomic.Int64 }

//spgemm:hotpath
func (t *triangleTally) row(_ int, _ []sparse.Index, vals []float64) {
	var s int64
	for _, v := range vals {
		s += int64(v)
	}
	t.total.Add(s)
}
